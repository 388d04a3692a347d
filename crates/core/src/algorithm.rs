//! The GP-SSN query answering engine (paper Section 5, Algorithm 2).
//!
//! Index construction selects pivots (Algorithm 1), builds `I_R` and
//! `I_S`, and the query path then runs:
//!
//! 1. **Social traversal** — level-by-level expansion of `I_S` from the
//!    root, pruning nodes by the interest-region test (Lemma 8) and the
//!    social-distance bound (Lemma 9), then pruning leaf users by
//!    Lemma 3 / Corollary 1 and Lemma 4, and finally Corollary 2.
//! 2. **Road traversal** — a best-first expansion of `I_R` on the
//!    min-heap key `lb_maxdist` (Eq. 17), pruning by the matching-score
//!    bound (Lemmas 1 and 6) and by the paper's threshold `δ` (the
//!    smallest Eq. 16 upper bound among candidates whose `sub_K` lower
//!    bound certifies a `θ`-matching set, Eq. 18). This is the same rule
//!    set as Algorithm 2's level-synchronized loop; best-first order
//!    simply pops the heap in a single pass.
//! 3. **Refinement** — candidate centers verified in ascending `lb`
//!    order with early termination (`lb >= best`).
//!
//! **Exactness.** The paper's `δ` cut can, in corner cases, discard the
//! region holding the only (or a better) feasible answer, because the
//! Eq. 18 guard certifies matching for `u_q` but not group feasibility.
//! We therefore never *drop* `δ`-cut items: they move to a deferred list
//! (no I/O — the nodes are not read), and after refinement any deferred
//! item whose `lb` still beats the best verified answer is expanded under
//! the proven bound. In the common case the deferred list is never
//! touched and the traversal I/O matches the paper's; in the corner case
//! the engine stays exact (the property tests against brute force check
//! this).

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::{DistanceCache, DistanceCacheConfig};
use crate::error::{BudgetState, Completion, GpSsnError, QueryBudget, Trip};
use crate::pruning::{
    corollary2_filter, lb_match_score_node, lb_maxdist_node, lb_maxdist_poi,
    prune_node_by_social_distance, prune_user_by_social_distance, ub_match_score_keywords,
    ub_match_score_signature, ub_maxdist_node, ub_maxdist_poi, PruningRegion,
};
use crate::query::{GpSsnAnswer, GpSsnQuery};
use crate::refinement::{verify_center, CenterVerification, ChBackend, VerifyContext};
use crate::stats::BackendServed;
use crate::stats::{binomial_f64, PruningStats, QueryMetrics, QueryOutcome, TopKOutcome};
use gpssn_graph::DijkstraWorkspace;
use gpssn_index::{
    select_road_pivots, select_social_pivots, IoCounter, PivotSelectConfig, RoadIndex,
    RoadIndexConfig, SocialIndex, SocialIndexConfig,
};
use gpssn_obs::Obs;
use gpssn_road::{PoiId, RoadPivots};
use gpssn_social::{SocialPivots, UserId};
use gpssn_spatial::Entry;
use gpssn_ssn::SpatialSocialNetwork;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of road pivots `h`.
    pub num_road_pivots: usize,
    /// Number of social pivots `l`.
    pub num_social_pivots: usize,
    /// `I_R` build parameters.
    pub road_index: RoadIndexConfig,
    /// `I_S` build parameters.
    pub social_index: SocialIndexConfig,
    /// Algorithm 1 parameters.
    pub pivot_select: PivotSelectConfig,
    /// Per-center cap on refinement subset enumeration (safety valve).
    pub enumeration_cap: usize,
    /// Optional LRU buffer pool (in pages) in front of the simulated
    /// index file: I/O then counts misses only. `None` reproduces the
    /// paper's raw page-access metric.
    pub page_cache_capacity: Option<usize>,
    /// Cross-query ball / `dist_RN` cache shared by every query this
    /// engine serves. Cached values are bit-identical to recomputation
    /// (see [`crate::cache`]), so under an unlimited budget answers are
    /// unchanged; under a tight budget hits simply stretch how far the
    /// budget reaches (cached work charges no Dijkstra settles). `None`
    /// disables caching.
    pub distance_cache: Option<DistanceCacheConfig>,
    /// Telemetry sink shared by every query this engine serves: phase
    /// spans (text flamegraph / Chrome trace) plus per-query counters
    /// and phase-duration histograms (Prometheus / JSON). `None` — the
    /// default — costs each instrumentation site one `Option` check; an
    /// attached-but-disabled sink costs one relaxed atomic load (the
    /// `obs_overhead` bench keeps this honest).
    pub obs: Option<Arc<Obs>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_road_pivots: 5,
            num_social_pivots: 5,
            road_index: RoadIndexConfig::default(),
            social_index: SocialIndexConfig::default(),
            pivot_select: PivotSelectConfig::default(),
            enumeration_cap: 200_000,
            page_cache_capacity: None,
            distance_cache: Some(DistanceCacheConfig::default()),
            obs: None,
        }
    }
}

impl EngineConfig {
    /// Sets the index-build worker count (`0` = all cores) on both the
    /// `I_R` and `I_S` builders — the `gpq --build-threads` knob. The
    /// built indexes are bit-identical for every thread count; only the
    /// build wall clock changes.
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.road_index.build.threads = threads;
        self.social_index.build.threads = threads;
        self
    }
}

/// Which oracle serves refinement-time `dist_RN` computations.
///
/// Both backends return bit-identical distances (the CH oracle unpacks
/// every winning up–down path and refolds original edge weights in
/// Dijkstra's exact operation order — see `gpssn_graph::ch`), so the
/// choice affects speed and metering only, never answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceBackend {
    /// Multi-target Dijkstra sweeps over the road graph.
    Dijkstra,
    /// The road index's contraction-hierarchy oracle. Falls back to
    /// [`DistanceBackend::Dijkstra`] silently when the index carries no
    /// oracle (`RoadIndexConfig::build_ch = false`, or an index loaded
    /// from a CH-less file).
    Ch,
}

/// What to serve when the exact pipeline cannot produce an answer.
///
/// The engine degrades along a fixed ladder of rungs, each strictly
/// weaker than the last (see [`Completion::rung`]):
///
/// 1. **exact** — the search completed; the answer is the optimum.
/// 2. **truncated** — a budget trip (or an absorbed refinement fault)
///    cut the search short; the best *verified* answer is served with a
///    sound optimality-gap bound.
/// 3. **sampling** — nothing was verified in time; a bounded sampling
///    pass (the paper's §5 future-work estimator) produces an answer
///    that satisfies every query constraint but carries no gap bound.
/// 4. **failed** — even sampling found nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Stop at rung 2: a query with nothing verified reports
    /// [`Completion::Failed`], and a panic inside center verification
    /// propagates to the batch isolation layer (the legacy behavior,
    /// and the default).
    #[default]
    FailFast,
    /// Walk the whole ladder: panics inside center verification are
    /// caught per-center (the center is treated as unresolved and
    /// counted as a fault), and a query that would fail outright gets
    /// the bounded sampling pass before giving up.
    Ladder,
}

/// Per-query switches (ablations and stats collection).
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Gather the Figure-7 pruning-power counters (adds one linear pass
    /// over users and POIs).
    pub collect_stats: bool,
    /// Interest-score pruning (Lemma 3 / Corollary 1 / Lemma 8).
    pub use_interest_pruning: bool,
    /// Social-distance pruning (Lemmas 4 and 9).
    pub use_social_distance_pruning: bool,
    /// Matching-score pruning (Lemmas 1 and 6).
    pub use_matching_pruning: bool,
    /// `δ` distance pruning (Lemmas 5 and 7).
    pub use_delta_pruning: bool,
    /// Use the exact halfspace-corner MBR test instead of the paper's
    /// geometric `maxdist`/`mindist` comparison for Lemma 8 (the
    /// geometric test is sufficient-only; the tight test prunes more).
    pub use_tight_mbr_test: bool,
    /// Oracle serving refinement-time `dist_RN` rows and columns. The
    /// default [`DistanceBackend::Ch`] uses the road index's contraction
    /// hierarchy when it carries one and degrades to Dijkstra otherwise;
    /// answers are bit-identical either way. The sampling-based
    /// approximate path always uses Dijkstra.
    pub distance_backend: DistanceBackend,
    /// What to serve when the exact pipeline cannot produce an answer
    /// (see [`DegradationPolicy`]). The default, `FailFast`, preserves
    /// the legacy failure behavior exactly.
    pub degradation: DegradationPolicy,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            collect_stats: false,
            use_interest_pruning: true,
            use_social_distance_pruning: true,
            use_matching_pruning: true,
            use_delta_pruning: true,
            use_tight_mbr_test: false,
            distance_backend: DistanceBackend::Ch,
            degradation: DegradationPolicy::default(),
        }
    }
}

/// The GP-SSN engine: both indexes plus the query algorithm.
pub struct GpSsnEngine<'a> {
    ssn: &'a SpatialSocialNetwork,
    road_index: RoadIndex,
    social_index: SocialIndex,
    cfg: EngineConfig,
    /// Shared LRU buffer pool (when configured): persists across queries
    /// like a real database buffer manager, so hot pages (roots, upper
    /// index levels) stop costing physical reads after warm-up.
    page_cache: Option<std::sync::Mutex<gpssn_index::io::PageCache>>,
    /// Cross-query ball / `dist_RN` cache (when configured).
    distance_cache: Option<DistanceCache>,
    /// Circuit breaker guarding the CH oracle across every query this
    /// engine serves: repeated CH faults open it, redirecting distance
    /// batches to the bit-identical Dijkstra path until a half-open
    /// probe succeeds (see [`crate::breaker`]).
    ch_breaker: CircuitBreaker,
}

/// Work items of the road-side best-first traversal.
#[derive(Debug, Clone, Copy)]
enum Item {
    Node(u32),
    Center(PoiId),
}

impl<'a> GpSsnEngine<'a> {
    /// Builds the engine: pivot selection (Algorithm 1), `I_R`, `I_S`.
    ///
    /// Index construction honours the build-thread knobs on
    /// `cfg.road_index.build` / `cfg.social_index.build` (see
    /// [`EngineConfig::with_build_threads`]); the built indexes are
    /// bit-identical for every thread count. With a metrics-enabled
    /// telemetry sink attached, each build stage's wall clock lands in
    /// the `gpssn_build_stage_ns{stage}` histogram and the CH
    /// contraction's witness-workspace reuse counters in
    /// `gpssn_build_witness_{resets,recycles}_total`.
    pub fn build(ssn: &'a SpatialSocialNetwork, cfg: EngineConfig) -> Self {
        let mut stages: Vec<(&'static str, std::time::Duration)> = Vec::new();
        let t0 = Instant::now();
        let mut ps_road = cfg.pivot_select.clone();
        ps_road.count = cfg.num_road_pivots;
        let road_pivot_ids = select_road_pivots(ssn.road(), &ps_road);
        let road_pivots =
            RoadPivots::new_with_threads(ssn.road(), road_pivot_ids, cfg.road_index.build.threads);
        stages.push(("road_pivots", t0.elapsed()));

        let t0 = Instant::now();
        let mut ps_soc = cfg.pivot_select.clone();
        ps_soc.count = cfg.num_social_pivots;
        let social_pivot_ids = select_social_pivots(ssn.social(), &ps_soc);
        let social_pivots = SocialPivots::new_with_threads(
            ssn.social(),
            social_pivot_ids,
            cfg.social_index.build.threads,
        );
        stages.push(("social_pivots", t0.elapsed()));

        let (road_index, road_stages) = RoadIndex::build_with_stages(
            ssn.road(),
            ssn.pois(),
            road_pivots,
            cfg.road_index.clone(),
        );
        let (social_index, social_stages) = SocialIndex::build_with_stages(
            ssn,
            social_pivots,
            road_index.pivots(),
            &cfg.social_index,
        );
        if let Some(o) = cfg.obs.as_deref().filter(|o| o.metrics_on()) {
            for (name, d) in stages
                .iter()
                .chain(road_stages.stages.iter())
                .chain(social_stages.stages.iter())
            {
                o.observe(
                    "gpssn_build_stage_ns",
                    &[("stage", name)],
                    d.as_nanos().min(u64::MAX as u128) as u64,
                );
            }
            if let Some(ch) = road_stages.ch {
                o.inc("gpssn_build_witness_resets_total", &[], ch.witness_resets);
                o.inc(
                    "gpssn_build_witness_recycles_total",
                    &[],
                    ch.witness_recycles,
                );
                o.inc("gpssn_build_ch_shortcuts_total", &[], ch.shortcuts as u64);
                o.inc("gpssn_build_ch_rounds_total", &[], u64::from(ch.rounds));
            }
        }
        let page_cache = cfg
            .page_cache_capacity
            .map(|cap| std::sync::Mutex::new(gpssn_index::io::PageCache::new(cap)));
        let distance_cache = cfg.distance_cache.as_ref().map(DistanceCache::new);
        GpSsnEngine {
            ssn,
            road_index,
            social_index,
            cfg,
            page_cache,
            distance_cache,
            ch_breaker: CircuitBreaker::new(BreakerConfig::default()),
        }
    }

    /// The circuit breaker guarding the CH distance backend.
    pub fn ch_breaker(&self) -> &CircuitBreaker {
        &self.ch_breaker
    }

    /// The engine's cross-query distance cache, if configured.
    pub fn distance_cache(&self) -> Option<&DistanceCache> {
        self.distance_cache.as_ref()
    }

    /// Publishes the distance cache's lifetime counters and per-shard
    /// occupancy/capacity gauges into the attached telemetry registry.
    /// Values are absolute (set, not added), so calling this repeatedly
    /// — e.g. right before scraping — never double-counts. A no-op
    /// without an active metrics sink or a configured cache.
    pub fn publish_cache_metrics(&self) {
        let (Some(o), Some(cache)) = (
            self.obs().filter(|o| o.metrics_on()),
            self.distance_cache.as_ref(),
        ) else {
            return;
        };
        let reg = o.registry();
        let life = cache.lifetime_stats();
        for (kind, hits, misses, evictions) in [
            (
                "ball",
                life.ball_hits,
                life.ball_misses,
                life.ball_evictions,
            ),
            (
                "dist",
                life.dist_hits,
                life.dist_misses,
                life.dist_evictions,
            ),
        ] {
            reg.set_counter("gpssn_cache_lifetime_hits_total", &[("kind", kind)], hits);
            reg.set_counter(
                "gpssn_cache_lifetime_misses_total",
                &[("kind", kind)],
                misses,
            );
            reg.set_counter("gpssn_cache_evictions_total", &[("kind", kind)], evictions);
        }
        reg.set_gauge("gpssn_cache_hit_rate", &[], life.hit_rate());
        for (kind, shards) in [
            ("ball", cache.ball_shard_occupancy()),
            ("dist", cache.dist_shard_occupancy()),
        ] {
            for (i, s) in shards.iter().enumerate() {
                let shard = i.to_string();
                reg.set_gauge(
                    "gpssn_cache_shard_entries",
                    &[("kind", kind), ("shard", &shard)],
                    s.entries as f64,
                );
                reg.set_gauge(
                    "gpssn_cache_shard_capacity",
                    &[("kind", kind), ("shard", &shard)],
                    s.capacity as f64,
                );
            }
        }
    }

    /// The CH oracle serving this query's `dist_RN` batches, honouring
    /// [`QueryOptions::distance_backend`]: `None` under the Dijkstra
    /// backend or when the road index carries no oracle.
    fn ch_for(&self, opts: &QueryOptions) -> Option<&gpssn_graph::ChOracle> {
        match opts.distance_backend {
            DistanceBackend::Dijkstra => None,
            DistanceBackend::Ch => self.road_index.ch(),
        }
    }

    /// The attached telemetry sink when it is live (metrics or tracing
    /// enabled); dormant and absent sinks both come back `None`, so
    /// every instrumentation site downstream stays a single check.
    fn obs(&self) -> Option<&Obs> {
        self.cfg.obs.as_deref().filter(|o| o.active())
    }

    /// The telemetry sink attached at build time, regardless of whether
    /// metrics or tracing are currently enabled on it.
    pub fn obs_handle(&self) -> Option<&Arc<Obs>> {
        self.cfg.obs.as_ref()
    }

    /// The spatial-social network this engine serves.
    pub fn ssn(&self) -> &SpatialSocialNetwork {
        self.ssn
    }

    /// The road index `I_R`.
    pub fn road_index(&self) -> &RoadIndex {
        &self.road_index
    }

    /// The social index `I_S`.
    pub fn social_index(&self) -> &SocialIndex {
        &self.social_index
    }

    /// Runs a query with default options, panicking on invalid input.
    /// Prefer [`GpSsnEngine::try_query_with_options`] in serving paths.
    pub fn query(&self, q: &GpSsnQuery) -> QueryOutcome {
        self.query_with_options(q, &QueryOptions::default())
    }

    /// Runs a query with explicit options, panicking on invalid input.
    /// Prefer [`GpSsnEngine::try_query_with_options`] in serving paths.
    pub fn query_with_options(&self, q: &GpSsnQuery, opts: &QueryOptions) -> QueryOutcome {
        unwrap_outcome(self.try_query_with_options(q, opts, &QueryBudget::unlimited()))
    }

    /// Fallible exact query under a resource budget.
    ///
    /// Validation failures return `Err` ([`GpSsnError::InvalidQuery`],
    /// [`GpSsnError::UnknownUser`], [`GpSsnError::RadiusOutOfIndexRange`],
    /// [`GpSsnError::Infeasible`]); a query that *starts* always returns
    /// `Ok` and reports budget trips through
    /// [`QueryOutcome::completion`] — the anytime contract: the best
    /// verified answer so far plus an optimality-gap bound, or
    /// [`Completion::Failed`] when nothing was verified in time.
    pub fn try_query_with_options(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        budget: &QueryBudget,
    ) -> Result<QueryOutcome, GpSsnError> {
        let (answers, completion, metrics) = self.run(q, Mode::Exact, opts, budget)?;
        Ok(QueryOutcome {
            answer: answers.into_iter().next(),
            completion,
            metrics,
        })
    }

    /// Panic-isolated parallel batch under a shared per-query budget.
    ///
    /// Each query is answered as by
    /// [`GpSsnEngine::try_query_with_options`] — under
    /// [`DegradationPolicy::Ladder`] refinement faults degrade answers
    /// down the ladder instead of surfacing as `Internal` errors in the
    /// slot. `threads = 0` means available parallelism and larger counts
    /// are clamped to the batch size. A panic inside one query is caught
    /// at that query's boundary and surfaced as [`GpSsnError::Internal`]
    /// in its slot — the rest of the batch still completes, in input
    /// order, and every slot is bit-identical to answering the queries
    /// one by one.
    // Audited expect: the workers fill every slot exactly once before
    // the scope exits (each index is claimed by exactly one worker); an
    // empty slot is unreachable.
    #[allow(clippy::expect_used)]
    pub fn try_query_batch(
        &self,
        queries: &[GpSsnQuery],
        threads: usize,
        opts: &QueryOptions,
        budget: &QueryBudget,
    ) -> Vec<Result<QueryOutcome, GpSsnError>> {
        let threads = resolve_threads(threads, queries.len());
        let _capture = crate::panic_capture::capture_scope();
        let run_one = |q: &GpSsnQuery| run_isolated(self, q, opts, budget);
        if threads == 1 || queries.len() <= 1 {
            return queries.iter().map(run_one).collect();
        }
        // Each worker accumulates metrics into a private registry; the
        // merge below folds them into the base registry in worker order.
        // Counter and histogram merges are element-wise additions, so
        // batch totals are reproducible under any thread interleaving
        // (see `Obs::with_registry`).
        let obs = self.obs().filter(|o| o.metrics_on());
        let worker_regs: Vec<Arc<gpssn_obs::Registry>> = (0..threads)
            .map(|_| Arc::new(gpssn_obs::Registry::new()))
            .collect();
        let mut slots: Vec<Option<Result<QueryOutcome, GpSsnError>>> =
            (0..queries.len()).map(|_| None).collect();
        // Work stealing: a shared cursor hands out one query at a time,
        // so a worker stuck on a skewed query (large radius, dense
        // social neighborhood) never strands a tail of cheap queries
        // behind it — the other workers drain them.
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = worker_regs
                .iter()
                .map(|reg| {
                    let reg = Arc::clone(reg);
                    let (cursor, run_one) = (&cursor, &run_one);
                    scope.spawn(move || {
                        let mut claimed = Vec::new();
                        let mut run = || loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= queries.len() {
                                break;
                            }
                            claimed.push((i, run_one(&queries[i])));
                        };
                        if obs.is_some() {
                            Obs::with_registry(reg, &mut run);
                        } else {
                            run();
                        }
                        claimed
                    })
                })
                .collect();
            for h in handles {
                let claimed = h
                    .join()
                    .expect("batch workers never panic: every query is panic-isolated");
                for (i, r) in claimed {
                    debug_assert!(slots[i].is_none(), "query {i} claimed twice");
                    slots[i] = Some(r);
                }
            }
        });
        if let Some(o) = obs {
            for reg in &worker_regs {
                o.base_registry().merge_from(reg);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    /// Approximate query using the paper's future-work *subset sampling*
    /// (Section 5): the index traversal is unchanged, but refinement
    /// draws `samples_per_center` random connected groups instead of
    /// enumerating, from one RNG seeded with `seed`. Any returned answer
    /// satisfies Definition 5 exactly; it may be suboptimal (or missed).
    /// Same error/anytime contract as
    /// [`GpSsnEngine::try_query_with_options`] (sampled draws count
    /// against `max_groups_enumerated`).
    pub fn try_query_approximate(
        &self,
        q: &GpSsnQuery,
        samples_per_center: usize,
        seed: u64,
        budget: &QueryBudget,
    ) -> Result<QueryOutcome, GpSsnError> {
        let mode = Mode::Sampled {
            samples: samples_per_center,
            seed,
        };
        let (answers, completion, metrics) = self.run(q, mode, &QueryOptions::default(), budget)?;
        Ok(QueryOutcome {
            answer: answers.into_iter().next(),
            completion,
            metrics,
        })
    }

    /// Top-`k` GP-SSN under a resource budget: the `k` best answers over
    /// *distinct candidate centers* (each center contributes its optimal
    /// feasible group), sorted by ascending `maxdist`. `k = 1` coincides
    /// with the exact query's optimum. `opts` applies as given except
    /// that `δ` pruning is off (`δ` bounds the best answer, not the
    /// `k`-th). Under truncation the returned answers are all verified;
    /// [`TopKOutcome::completion`] carries the optimality gap of the
    /// `k`-th slot (`f64::INFINITY` when fewer than `k` answers were
    /// verified).
    pub fn try_query_top_k(
        &self,
        q: &GpSsnQuery,
        k: usize,
        opts: &QueryOptions,
        budget: &QueryBudget,
    ) -> Result<TopKOutcome, GpSsnError> {
        if k == 0 {
            return Err(GpSsnError::InvalidQuery("k must be positive".to_string()));
        }
        let opts = QueryOptions {
            use_delta_pruning: false,
            ..opts.clone()
        };
        let (answers, completion, metrics) = self.run(q, Mode::TopK(k), &opts, budget)?;
        Ok(TopKOutcome {
            answers,
            completion,
            metrics,
        })
    }

    /// The one query pipeline behind every public entry point: validate,
    /// social pruning, the road traversal and one center loop
    /// ([`GpSsnEngine::search`]), the ladder's sampling rung, then the
    /// per-query metrics. Returns the kept answers in ascending
    /// `maxdist` (at most one outside top-`k` mode).
    fn run(
        &self,
        q: &GpSsnQuery,
        mode: Mode,
        opts: &QueryOptions,
        budget: &QueryBudget,
    ) -> Result<(Vec<GpSsnAnswer>, Completion, QueryMetrics), GpSsnError> {
        self.validate_query(q)?;
        self.validate_radius(q)?;
        self.check_static_feasibility(q)?;
        let meter = BudgetState::new(budget);
        let obs = self.obs();
        let _qspan = obs
            .filter(|o| o.tracing_on())
            .map(|o| o.tracer().span("query"));

        let start = Instant::now();
        let io = IoCounter::new();
        let mut stats = PruningStats {
            users_total: self.ssn.social().num_users(),
            pois_total: self.ssn.pois().len(),
            ..Default::default()
        };

        let candidates = gpssn_obs::phase(obs, "prune_social", || {
            self.social_phase(q, opts, &io, &mut stats)
        });
        let (mut answers, delta, mut completion) =
            self.search(q, mode, opts, &candidates, &io, &mut stats, &meter, obs);

        // Bottom rung of the degradation ladder: the pipeline failed
        // outright, so spend a small fresh budget on the sampling
        // estimator before reporting failure.
        if opts.degradation == DegradationPolicy::Ladder
            && answers.is_empty()
            && matches!(completion, Completion::Failed(_))
        {
            if let Some(ans) = gpssn_obs::phase(obs, "degrade_sampling", || {
                self.sampling_rescue(q, opts, &candidates, &io)
            }) {
                answers.push(ans);
                completion = Completion::DegradedSampling;
            }
        }

        if opts.collect_stats {
            self.independent_rule_measurement(q, delta, &mut stats);
            stats.pairs_total_estimate =
                binomial_f64(self.ssn.social().num_users(), q.tau) * self.ssn.pois().len() as f64;
        }
        stats.candidate_users = candidates.len();

        let metrics = finish_metrics(start, &io, &meter, stats);
        record_query(
            obs,
            mode.path(),
            !answers.is_empty(),
            &completion,
            &metrics,
            &meter,
        );
        Ok((answers, completion, metrics))
    }

    /// `Err(InvalidQuery)` / `Err(UnknownUser)` for malformed parameters.
    fn validate_query(&self, q: &GpSsnQuery) -> Result<(), GpSsnError> {
        q.validate().map_err(GpSsnError::InvalidQuery)?;
        let num_users = self.ssn.social().num_users();
        if q.user as usize >= num_users {
            return Err(GpSsnError::UnknownUser {
                user: q.user,
                num_users,
            });
        }
        Ok(())
    }

    /// `Err(RadiusOutOfIndexRange)` when `r` is outside what `I_R` serves.
    fn validate_radius(&self, q: &GpSsnQuery) -> Result<(), GpSsnError> {
        let (r_min, r_max) = (self.cfg.road_index.r_min, self.cfg.road_index.r_max);
        if !(q.radius >= r_min && q.radius <= r_max) {
            return Err(GpSsnError::RadiusOutOfIndexRange {
                radius: q.radius,
                r_min,
                r_max,
            });
        }
        Ok(())
    }

    /// `Err(Infeasible)` for queries provably unanswerable before any
    /// index work: `τ` beyond the population, or a friendless query user
    /// with `τ ≥ 2` (a connected group of that size cannot exist).
    fn check_static_feasibility(&self, q: &GpSsnQuery) -> Result<(), GpSsnError> {
        let m = self.ssn.social().num_users();
        if q.tau > m {
            return Err(GpSsnError::Infeasible {
                reason: format!(
                    "group size tau = {} exceeds the user population m = {m}",
                    q.tau
                ),
            });
        }
        if q.tau >= 2 && self.ssn.social().graph().neighbors(q.user).is_empty() {
            return Err(GpSsnError::Infeasible {
                reason: format!(
                    "query user {} has no friends, so no connected group of size {} exists",
                    q.user, q.tau
                ),
            });
        }
        Ok(())
    }

    /// The ladder's sampling rung: re-collects candidate centers under a
    /// small *fresh* work budget (the original meter is spent or
    /// faulted) and runs the sampled center loop over the cheapest of
    /// them — the paper's §5 future-work subset sampler. Any answer
    /// returned satisfies Definition 5 exactly; only its optimality is
    /// unknown. Deterministic: the RNG is seeded from the query user and
    /// the budget is counted in work units, not wall-clock time. The
    /// sampler runs on plain Dijkstra, touching none of the CH or
    /// refinement machinery the faults came from.
    fn sampling_rescue(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        candidates: &[UserId],
        io: &IoCounter,
    ) -> Option<GpSsnAnswer> {
        const RESCUE_SAMPLES: usize = 32;
        const RESCUE_CENTERS: usize = 64;
        let budget = QueryBudget {
            max_heap_pops: Some(100_000),
            max_groups_enumerated: Some(20_000),
            max_dijkstra_settles: Some(2_000_000),
            deadline: None,
        };
        let meter = BudgetState::new(&budget);
        let mode = Mode::Sampled {
            samples: RESCUE_SAMPLES,
            seed: 0x5EED_0000 ^ u64::from(q.user),
        };
        let mut scratch = PruningStats::default();
        let mut t = self.traverse(q, mode, opts, candidates, io, &mut scratch, &meter);
        t.centers.truncate(RESCUE_CENTERS);
        let mut cl = CenterLoop::new(self, q, mode, candidates, opts, &meter, None);
        cl.refine(&t.centers);
        cl.kept.into_iter().next()
    }

    /// The road-side best-first traversal of `I_R` (Algorithm 2 lines
    /// 11–28): candidate centers with their Eq. 17 lower bounds, sorted
    /// by `(lb, id)` — ties broken by center id, so the verification
    /// order (and with it which of two equal answers is kept) does not
    /// depend on how the heap happened to pop them. A budget trip
    /// stops the traversal; heap pops come out in ascending `lb`, so the
    /// `lb` in hand bounds everything still queued.
    ///
    /// Sampled mode keeps the approximate path's traversal — the
    /// element-wise-max `scand_ub` and δ-cut items *dropped* — so it sees
    /// the same centers and its seeded draws stay reproducible. The
    /// other modes use the tight `scand_ub` and *defer* δ-cut items to
    /// the exactness fallback (see the module docs).
    #[allow(clippy::too_many_arguments)]
    fn traverse(
        &self,
        q: &GpSsnQuery,
        mode: Mode,
        opts: &QueryOptions,
        candidates: &[UserId],
        io: &IoCounter,
        stats: &mut PruningStats,
        meter: &BudgetState,
    ) -> Traversal {
        let idx = &self.road_index;
        let uq_interest = self.ssn.social().interest(q.user);
        let uq_rn = self.social_index.user_rn_dists(q.user);
        let sampled = matches!(mode, Mode::Sampled { .. });
        let mut t = Traversal {
            centers: Vec::new(),
            deferred: Vec::new(),
            delta: f64::INFINITY,
            outstanding: f64::INFINITY,
            scand_ub: self.scand_ub(q, candidates, sampled),
        };
        let mut heap = MinHeap::new();
        heap.push(0.0, Item::Node(idx.tree().root()));
        while let Some((lb, item)) = heap.pop() {
            meter.note_pop();
            if meter.is_tripped() {
                t.outstanding = lb;
                break;
            }
            if opts.use_delta_pruning && lb > t.delta {
                if sampled {
                    break;
                }
                // Paper line 14: everything remaining is δ-cut. Keep for
                // the exactness fallback; no I/O is spent on them now.
                match item {
                    Item::Node(n) => stats.pois_pruned_index += idx.node(n).poi_count,
                    Item::Center(_) => stats.pois_pruned_object += 1,
                }
                t.deferred.push((lb, item));
                continue;
            }
            match item {
                Item::Node(n) => {
                    self.touch(io, gpssn_index::io::page_ids::road(n));
                    self.expand_node(
                        q,
                        opts,
                        n,
                        uq_interest,
                        uq_rn,
                        &t.scand_ub,
                        &mut heap,
                        &mut t.centers,
                        &mut t.delta,
                        stats,
                        true,
                    );
                }
                Item::Center(o) => t.centers.push((lb, o)),
            }
        }
        t.centers
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        t
    }

    /// Eq. 16's `max_{u_j ∈ S}` term, per pivot. The loosest sound choice
    /// is the element-wise max over all candidates (`loose`); otherwise
    /// the much tighter per-pivot `(τ-1)`-th smallest companion distance
    /// (the best-case group of u_q plus its τ-1 pivot-closest
    /// candidates). That upper-bounds the objective of *some* τ-group —
    /// not necessarily a feasible one, which is exactly why δ-cut items
    /// go to the deferred list instead of being dropped (see module
    /// docs).
    fn scand_ub(&self, q: &GpSsnQuery, candidates: &[UserId], loose: bool) -> Vec<f64> {
        let uq_rn = self.social_index.user_rn_dists(q.user);
        if loose {
            let mut ub = uq_rn.to_vec();
            for &u in candidates {
                for (k, &d) in self.social_index.user_rn_dists(u).iter().enumerate() {
                    ub[k] = ub[k].max(d);
                }
            }
            return ub;
        }
        let need = q.tau.saturating_sub(1);
        (0..self.road_index.pivots().len())
            .map(|k| {
                let mut companions: Vec<f64> = candidates
                    .iter()
                    .filter(|&&u| u != q.user)
                    .map(|&u| self.social_index.user_rn_dists(u)[k])
                    .collect();
                companions.sort_by(|a, b| a.total_cmp(b));
                let kth = if need == 0 {
                    0.0
                } else if companions.len() < need {
                    f64::INFINITY
                } else {
                    companions[need - 1]
                };
                uq_rn[k].max(kth)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Phase 1: social traversal (Algorithm 2 lines 4–10, 29)
    // ------------------------------------------------------------------

    fn social_phase(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        io: &IoCounter,
        stats: &mut PruningStats,
    ) -> Vec<UserId> {
        let idx = &self.social_index;
        let uq_sn = idx.user_sn_dists(q.user);
        let region = PruningRegion::new(self.ssn.social().interest(q.user), q.gamma);
        let uq_ancestors = self.ancestors_of(q.user);

        let mut frontier = vec![idx.root()];
        self.touch(io, gpssn_index::io::page_ids::social(idx.root()));
        // Expand to the leaves, pruning nodes.
        loop {
            let all_leaves = frontier.iter().all(|&id| idx.node(id).children.is_empty());
            if all_leaves {
                break;
            }
            let mut next = Vec::new();
            for &id in &frontier {
                let node = idx.node(id);
                if node.children.is_empty() {
                    next.push(id); // already a leaf; keep for object stage
                    continue;
                }
                for &child in &node.children {
                    self.touch(io, gpssn_index::io::page_ids::social(child));
                    let c = idx.node(child);
                    let by_dist = opts.use_social_distance_pruning
                        && prune_node_by_social_distance(uq_sn, &c.lb_sn, &c.ub_sn, q.tau);
                    let by_interest = opts.use_interest_pruning
                        && if opts.use_tight_mbr_test {
                            region.prunes_mbr_tight(&c.ub_w)
                        } else {
                            region.prunes_mbr(&c.lb_w, &c.ub_w)
                        };
                    if (by_dist || by_interest) && !uq_ancestors.contains(&child) {
                        stats.users_pruned_index += c.user_count;
                    } else {
                        next.push(child);
                    }
                }
            }
            frontier = next;
        }

        // Object level over leaf members (Lemmas 3 and 4).
        let mut candidates = Vec::new();
        for &leaf in &frontier {
            for &u in &idx.node(leaf).users {
                if u == q.user {
                    candidates.push(u);
                    continue;
                }
                let by_dist = opts.use_social_distance_pruning
                    && prune_user_by_social_distance(uq_sn, idx.user_sn_dists(u), q.tau);
                let by_interest =
                    opts.use_interest_pruning && region.prunes_point(self.ssn.social().interest(u));
                if by_dist || by_interest {
                    stats.users_pruned_object += 1;
                } else {
                    candidates.push(u);
                }
            }
        }
        if !candidates.contains(&q.user) {
            candidates.push(q.user);
        }

        // Corollary 2.
        if opts.use_interest_pruning {
            let before = candidates.len();
            candidates = corollary2_filter(&candidates, q.user, q.tau, q.gamma, |a, b| {
                self.ssn.social().score(a, b)
            });
            stats.users_pruned_object += before - candidates.len();
        }
        candidates
    }

    /// Node ids on the root-to-leaf path containing `user`; these nodes
    /// are never pruned on the social side (the query user must survive).
    fn ancestors_of(&self, user: UserId) -> Vec<u32> {
        let idx = &self.social_index;
        let mut path = Vec::new();
        fn dfs(idx: &SocialIndex, node: u32, user: UserId, path: &mut Vec<u32>) -> bool {
            path.push(node);
            let n = idx.node(node);
            if n.children.is_empty() {
                if n.users.contains(&user) {
                    return true;
                }
            } else {
                for &c in &n.children {
                    if dfs(idx, c, user, path) {
                        return true;
                    }
                }
            }
            path.pop();
            false
        }
        dfs(idx, idx.root(), user, &mut path);
        path
    }

    // ------------------------------------------------------------------
    // Phase 2: road traversal + refinement (Algorithm 2 lines 11–31)
    // ------------------------------------------------------------------

    /// Algorithm 2 after social pruning: the road traversal, one center
    /// loop over the candidate centers (cheapest lower bound first), then
    /// the exactness fallback over δ-deferred items. Returns the kept
    /// answers (ascending `maxdist`), the final `δ`, and the completion.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        q: &GpSsnQuery,
        mode: Mode,
        opts: &QueryOptions,
        candidates: &[UserId],
        io: &IoCounter,
        stats: &mut PruningStats,
        meter: &BudgetState,
        obs: Option<&Obs>,
    ) -> (Vec<GpSsnAnswer>, f64, Completion) {
        // If no feasible user group exists at all (independent of R),
        // every center is infeasible: answer nothing without touching
        // I_R. `None` means the check itself ran out of budget — proceed;
        // the traversal below trips on its first pop and degrades cleanly.
        if self.any_feasible_group(q, candidates, stats, meter) == Some(false) {
            return (Vec::new(), f64::INFINITY, Completion::Exact);
        }
        let mut t = gpssn_obs::phase(obs, "prune_road", || {
            self.traverse(q, mode, opts, candidates, io, stats, meter)
        });

        let centers = std::mem::take(&mut t.centers);
        let mut cl = CenterLoop::new(self, q, mode, candidates, opts, meter, obs);
        gpssn_obs::phase(obs, mode.phase(), || cl.refine(&centers));

        let mut outstanding = t.outstanding;
        if meter.is_tripped() {
            // Deferred work never ran; anything cheaper than the best
            // verified answer is unresolved (folding in resolved items
            // only widens the reported gap — conservative, never wrong).
            outstanding = t.deferred.iter().fold(outstanding, |m, &(lb, _)| m.min(lb));
        } else if !t.deferred.is_empty() {
            gpssn_obs::phase(obs, "refine_fallback", || {
                self.fallback(q, opts, &mut cl, &mut t, io, stats)
            });
        }
        cl.note_workspace();

        stats.pairs_refined += cl.pairs;
        stats.candidate_pois = centers.len();
        let completion =
            completion_of(meter, &cl.kept, mode.keep(), outstanding.min(cl.unresolved));
        (cl.kept, t.delta, completion)
    }

    /// Exactness fallback: the δ-deferred items whose `lb` still beats
    /// the incumbent, expanded in ascending `lb` order, their centers
    /// verified by the main loop's per-center step.
    fn fallback(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        cl: &mut CenterLoop<'_>,
        t: &mut Traversal,
        io: &IoCounter,
        stats: &mut PruningStats,
    ) {
        let uq_interest = self.ssn.social().interest(q.user);
        let uq_rn = self.social_index.user_rn_dists(q.user);
        // The pushed set fixes the heap's shape, and the shape decides
        // which of two equal-`lb` centers is verified first.
        t.deferred.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut heap = MinHeap::new();
        for &(lb, item) in &t.deferred {
            if lb < cl.kth() {
                heap.push(lb, item);
            }
        }
        while let Some((lb, item)) = heap.pop() {
            if lb >= cl.kth() {
                break;
            }
            cl.meter.note_pop();
            if cl.meter.is_tripped() {
                cl.unresolved = cl.unresolved.min(lb);
                break;
            }
            match item {
                Item::Node(n) => {
                    self.touch(io, gpssn_index::io::page_ids::road(n));
                    let mut local_centers = Vec::new();
                    self.expand_node(
                        q,
                        opts,
                        n,
                        uq_interest,
                        uq_rn,
                        &t.scand_ub,
                        &mut heap,
                        &mut local_centers,
                        &mut t.delta,
                        stats,
                        false,
                    );
                    for (clb, c) in local_centers {
                        heap.push(clb, Item::Center(c));
                    }
                }
                Item::Center(center) => {
                    if !cl.step(lb, center) {
                        break;
                    }
                }
            }
        }
    }

    /// Records an access to index page `page`: a physical read unless the
    /// engine's shared buffer pool holds it.
    fn touch(&self, io: &IoCounter, page: u64) {
        match &self.page_cache {
            None => io.touch(),
            Some(pool) => {
                // A panic caught by the batch isolation layer may leave
                // this lock poisoned; the cache tolerates a torn update
                // (worst case: one page access double-counted), so
                // recover the inner value rather than cascade a failure
                // into every later query.
                let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
                if !pool.access(page) {
                    io.touch();
                }
            }
        }
    }

    /// Whether any connected `τ`-group containing `u_q` with pairwise
    /// interest `>= γ` exists among the candidates (ignores `R`).
    /// `None` means the check was cut short (budget trip or enumeration
    /// cap) before either outcome was proven.
    fn any_feasible_group(
        &self,
        q: &GpSsnQuery,
        candidates: &[UserId],
        stats: &mut PruningStats,
        meter: &BudgetState,
    ) -> Option<bool> {
        if candidates.len() < q.tau {
            return Some(false);
        }
        let mut allowed = vec![false; self.ssn.social().num_users()];
        for &u in candidates {
            allowed[u as usize] = true;
        }
        let mut found = false;
        let mut complete = true;
        let mut visits = 0u64;
        gpssn_graph::enumerate_connected_subsets(
            self.ssn.social().graph(),
            q.user,
            q.tau,
            Some(&allowed),
            &mut |s| {
                visits += 1;
                meter.note_group();
                if meter.is_tripped() {
                    complete = false;
                    return false;
                }
                if self.ssn.social().pairwise_interest_holds(s, q.gamma) {
                    found = true;
                    return false;
                }
                if visits >= self.cfg.enumeration_cap as u64 {
                    complete = false;
                    return false;
                }
                true
            },
        );
        stats.pairs_refined += visits;
        if found {
            Some(true)
        } else if complete {
            Some(false)
        } else {
            None
        }
    }

    /// Drops candidates whose pivot lower bound to `center` already
    /// reaches `best_val` — they cannot belong to an improving group.
    fn filter_candidates_for_center(
        &self,
        candidates: &[UserId],
        center: PoiId,
        best_val: f64,
    ) -> Vec<UserId> {
        if !best_val.is_finite() {
            return candidates.to_vec();
        }
        let center_rn = &self.road_index.poi(center).pivot_dists;
        candidates
            .iter()
            .copied()
            .filter(|&u| {
                crate::pruning::lb_maxdist_poi(self.social_index.user_rn_dists(u), center_rn)
                    < best_val
            })
            .collect()
    }

    /// Expands one `I_R` node: applies Lemma 6 / Lemma 1 matching pruning
    /// and pushes surviving children (or candidate centers) with their
    /// Eq. 17 lower bounds; updates `δ` with guarded Eq. 16/5 upper
    /// bounds.
    #[allow(clippy::too_many_arguments)]
    fn expand_node(
        &self,
        q: &GpSsnQuery,
        opts: &QueryOptions,
        node: u32,
        uq_interest: &gpssn_social::InterestVector,
        uq_rn: &[f64],
        scand_ub: &[f64],
        heap: &mut MinHeap<Item>,
        centers: &mut Vec<(f64, PoiId)>,
        delta: &mut f64,
        stats: &mut PruningStats,
        count_stats: bool,
    ) {
        let idx = &self.road_index;
        for e in &idx.tree().node(node).entries {
            match *e {
                Entry::Item { item: poi, .. } => {
                    let aug = idx.poi(poi);
                    // Lemma 1 via the sup_K superset (Lemma 2).
                    if opts.use_matching_pruning
                        && ub_match_score_keywords(uq_interest, &aug.sup_keywords) < q.theta
                    {
                        if count_stats {
                            stats.pois_pruned_object += 1;
                        }
                        continue;
                    }
                    let lb = lb_maxdist_poi(uq_rn, &aug.pivot_dists);
                    // Eq. 18 guard at object granularity: sub_K certifies
                    // a θ-matching ball for u_q.
                    if gpssn_ssn::match_score_keywords(uq_interest, &aug.sub_keywords) >= q.theta {
                        *delta = delta.min(ub_maxdist_poi(scand_ub, &aug.pivot_dists, q.radius));
                    }
                    centers.push((lb, poi));
                }
                Entry::Child { node: child, .. } => {
                    let aug = idx.node(child);
                    // Lemma 6 via the node signature (Eq. 15).
                    if opts.use_matching_pruning
                        && ub_match_score_signature(uq_interest, &aug.sup_sig) < q.theta
                    {
                        if count_stats {
                            stats.pois_pruned_index += aug.poi_count;
                        }
                        continue;
                    }
                    let lb = lb_maxdist_node(uq_rn, &aug.lb_pivot, &aug.ub_pivot);
                    // Lemma 7 guard: Eq. 18 over the node samples
                    // certifies a candidate set inside, enabling the
                    // Eq. 16 δ update.
                    if lb_match_score_node(idx, aug, &[uq_interest]) >= q.theta {
                        *delta = delta.min(ub_maxdist_node(scand_ub, &aug.ub_pivot, q.radius));
                    }
                    heap.push(lb, Item::Node(child));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Independent per-rule measurement for Figures 7(b)/(c)
    // ------------------------------------------------------------------

    fn independent_rule_measurement(&self, q: &GpSsnQuery, delta: f64, stats: &mut PruningStats) {
        let social = self.ssn.social();
        let uq_sn = self.social_index.user_sn_dists(q.user);
        let region = PruningRegion::new(social.interest(q.user), q.gamma);
        for u in 0..social.num_users() as UserId {
            if u == q.user {
                continue;
            }
            if prune_user_by_social_distance(uq_sn, self.social_index.user_sn_dists(u), q.tau) {
                stats.users_pruned_by_distance += 1;
            } else if region.prunes_point(social.interest(u)) {
                stats.users_pruned_by_interest += 1;
            }
        }
        let uq_rn = self.social_index.user_rn_dists(q.user);
        let uq_interest = social.interest(q.user);
        let threshold = if delta.is_finite() {
            delta
        } else {
            f64::INFINITY
        };
        for o in 0..self.ssn.pois().len() as PoiId {
            let aug = self.road_index.poi(o);
            if lb_maxdist_poi(uq_rn, &aug.pivot_dists) > threshold {
                stats.pois_pruned_by_distance += 1;
            } else if ub_match_score_keywords(uq_interest, &aug.sup_keywords) < q.theta {
                stats.pois_pruned_by_matching += 1;
            }
        }
    }
}

/// Snapshots the meter's distance-cache tallies into [`CacheStats`].
fn cache_stats(meter: &BudgetState) -> crate::stats::CacheStats {
    let (ball_hits, ball_misses, dist_hits, dist_misses) = meter.cache_tallies();
    crate::stats::CacheStats {
        ball_hits,
        ball_misses,
        dist_hits,
        dist_misses,
    }
}

/// Assembles [`QueryMetrics`] from the meter's tallies. The settle
/// split is disjoint by construction: `meter.settles()` is the
/// budget-charged total across both backends, CH sweeps tally their
/// settles separately, and the difference is the plain-Dijkstra share.
fn finish_metrics(
    start: Instant,
    io: &IoCounter,
    meter: &BudgetState,
    stats: PruningStats,
) -> QueryMetrics {
    let (ch_batches, ch_settles) = meter.ch_tallies();
    let dijkstra_settles = meter.settles().saturating_sub(ch_settles);
    let (ws_resets, heap_recycles, ch_unpacks) = meter.workspace_tallies();
    let backend_served = BackendServed {
        dijkstra_batches: meter.dijkstra_batches(),
        dijkstra_settles,
        ch_batches,
        ch_settles,
    };
    QueryMetrics {
        cpu: start.elapsed(),
        io_pages: io.count(),
        heap_pops: meter.pops(),
        groups_enumerated: meter.groups(),
        dijkstra_settles,
        ch_batches,
        ch_settles,
        backend_served,
        ws_resets,
        heap_recycles,
        ch_unpacks,
        cache: cache_stats(meter),
        stats,
    }
}

/// Runs [`verify_center`] under the query's fault policy. An `Err`
/// (broken internal invariant) is always absorbed as a query fault;
/// under [`DegradationPolicy::Ladder`] a *panic* inside verification is
/// additionally caught per-center and absorbed the same way, while
/// `FailFast` lets it propagate to the batch isolation layer (the
/// legacy behavior). `None` means the center stays unresolved — the
/// caller folds its lower bound into the anytime gap, and the nonzero
/// fault count keeps the completion from claiming `Exact`.
#[allow(clippy::too_many_arguments)]
fn verify_center_guarded(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    candidates: &[UserId],
    center: PoiId,
    bound: f64,
    enumeration_cap: usize,
    ctx: &mut VerifyContext<'_>,
    policy: DegradationPolicy,
) -> Option<CenterVerification> {
    let res = if policy == DegradationPolicy::Ladder {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            verify_center(ssn, q, candidates, center, bound, enumeration_cap, ctx)
        }));
        match attempt {
            Ok(r) => r,
            Err(_) => {
                // The unwound verification may have left this worker's
                // CH workspace mid-sweep; wipe it so later batches stay
                // bit-identical.
                if let Some(chb) = ctx.ch.as_mut() {
                    chb.search.hard_reset();
                }
                Err(GpSsnError::Internal(format!(
                    "refinement panicked verifying center {center}"
                )))
            }
        }
    } else {
        verify_center(ssn, q, candidates, center, bound, enumeration_cap, ctx)
    };
    match res {
        Ok(v) => Some(v),
        Err(_) => {
            ctx.budget.note_fault();
            if let Some(o) = ctx.obs {
                o.inc("gpssn_refine_faults_total", &[], 1);
            }
            None
        }
    }
}

/// The error reported when a cut query verified nothing: the tripped
/// budget when one tripped, otherwise the absorbed refinement faults.
fn cut_error(meter: &BudgetState) -> GpSsnError {
    match meter.trip() {
        Some(trip) => trip.into(),
        None => GpSsnError::Internal(format!(
            "{} refinement fault(s) absorbed with no verified answer",
            meter.faults()
        )),
    }
}

/// Folds one finished query into the metrics registry — called once per
/// query at outcome assembly, so the hot traversal and refinement paths
/// never touch the registry. Under [`Obs::with_registry`] redirection
/// (batch workers) this lands in the calling thread's private registry.
fn record_query(
    obs: Option<&Obs>,
    path: &'static str,
    answered: bool,
    completion: &Completion,
    m: &QueryMetrics,
    meter: &BudgetState,
) {
    let Some(o) = obs.filter(|o| o.metrics_on()) else {
        return;
    };
    o.inc("gpssn_queries_total", &[("path", path)], 1);
    if answered {
        o.inc("gpssn_answers_total", &[("path", path)], 1);
    }
    let class = completion.rung();
    o.inc("gpssn_query_completions_total", &[("class", class)], 1);
    if !matches!(completion, Completion::Exact) {
        o.inc("gpssn_degraded_rung_total", &[("rung", class)], 1);
    }
    if let Some(trip) = meter.trip() {
        let resource = match trip {
            Trip::Deadline => "deadline",
            Trip::HeapPops => "heap_pops",
            Trip::Groups => "groups",
            Trip::DijkstraSettles => "settles",
        };
        o.inc("gpssn_budget_trips_total", &[("resource", resource)], 1);
    }
    o.inc("gpssn_io_pages_total", &[], m.io_pages);
    o.inc("gpssn_heap_pops_total", &[], m.heap_pops);
    o.inc("gpssn_groups_enumerated_total", &[], m.groups_enumerated);
    let b = &m.backend_served;
    o.inc(
        "gpssn_distance_batches_total",
        &[("backend", "dijkstra")],
        b.dijkstra_batches,
    );
    o.inc(
        "gpssn_distance_batches_total",
        &[("backend", "ch")],
        b.ch_batches,
    );
    o.inc(
        "gpssn_settles_total",
        &[("backend", "dijkstra")],
        b.dijkstra_settles,
    );
    o.inc("gpssn_settles_total", &[("backend", "ch")], b.ch_settles);
    let c = &m.cache;
    o.inc(
        "gpssn_cache_lookups_total",
        &[("kind", "ball"), ("result", "hit")],
        c.ball_hits,
    );
    o.inc(
        "gpssn_cache_lookups_total",
        &[("kind", "ball"), ("result", "miss")],
        c.ball_misses,
    );
    o.inc(
        "gpssn_cache_lookups_total",
        &[("kind", "dist"), ("result", "hit")],
        c.dist_hits,
    );
    o.inc(
        "gpssn_cache_lookups_total",
        &[("kind", "dist"), ("result", "miss")],
        c.dist_misses,
    );
    o.inc("gpssn_workspace_resets_total", &[], m.ws_resets);
    o.inc("gpssn_heap_recycles_total", &[], m.heap_recycles);
    o.inc("gpssn_ch_unpacks_total", &[], m.ch_unpacks);
    let s = &m.stats;
    // Fig. 7 pruning powers are ratios of the counters below over these
    // denominators; `tests/obs_telemetry.rs` checks the exposition path
    // reconstructs the legacy `PruningStats` accessors exactly.
    o.inc("gpssn_users_scanned_total", &[], s.users_total as u64);
    o.inc("gpssn_pois_scanned_total", &[], s.pois_total as u64);
    o.inc(
        "gpssn_pruned_users_total",
        &[("stage", "index")],
        s.users_pruned_index as u64,
    );
    o.inc(
        "gpssn_pruned_users_total",
        &[("stage", "object")],
        s.users_pruned_object as u64,
    );
    o.inc(
        "gpssn_pruned_users_total",
        &[("stage", "distance")],
        s.users_pruned_by_distance as u64,
    );
    o.inc(
        "gpssn_pruned_users_total",
        &[("stage", "interest")],
        s.users_pruned_by_interest as u64,
    );
    o.inc(
        "gpssn_pruned_pois_total",
        &[("stage", "index")],
        s.pois_pruned_index as u64,
    );
    o.inc(
        "gpssn_pruned_pois_total",
        &[("stage", "object")],
        s.pois_pruned_object as u64,
    );
    o.inc(
        "gpssn_pruned_pois_total",
        &[("stage", "distance")],
        s.pois_pruned_by_distance as u64,
    );
    o.inc(
        "gpssn_pruned_pois_total",
        &[("stage", "matching")],
        s.pois_pruned_by_matching as u64,
    );
    o.inc("gpssn_pairs_refined_total", &[], s.pairs_refined);
    o.inc("gpssn_candidate_users_total", &[], s.candidate_users as u64);
    o.inc("gpssn_candidate_pois_total", &[], s.candidate_pois as u64);
    o.observe(
        "gpssn_query_cpu_ns",
        &[("path", path)],
        m.cpu.as_nanos().min(u64::MAX as u128) as u64,
    );
}

/// What a query computes. Besides its metric and phase labels, the one
/// pipeline ([`GpSsnEngine::run`]) consults it only for the traversal's
/// δ handling ([`GpSsnEngine::traverse`]), the per-center verifier and
/// candidate filter ([`CenterLoop::step`]), and how many answers the
/// collector keeps.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// The optimum (Algorithm 2).
    Exact,
    /// The `k` best answers over distinct centers.
    TopK(usize),
    /// The paper's §5 subset sampler: `samples` random connected groups
    /// per center, drawn from one RNG seeded with `seed`.
    Sampled { samples: usize, seed: u64 },
}

impl Mode {
    /// How many answers the collector keeps.
    fn keep(self) -> usize {
        match self {
            Mode::TopK(k) => k,
            Mode::Exact | Mode::Sampled { .. } => 1,
        }
    }

    /// The `path` label of this mode's per-query metrics.
    fn path(self) -> &'static str {
        match self {
            Mode::Exact => "exact",
            Mode::TopK(_) => "top_k",
            Mode::Sampled { .. } => "approximate",
        }
    }

    /// The phase (and span) name of this mode's center loop.
    fn phase(self) -> &'static str {
        match self {
            Mode::Sampled { .. } => "sample",
            Mode::Exact | Mode::TopK(_) => "refine",
        }
    }
}

/// What the road traversal hands to refinement.
struct Traversal {
    /// Candidate centers, ascending by `(lb, id)`.
    centers: Vec<(f64, PoiId)>,
    /// δ-cut items kept for the exactness fallback.
    deferred: Vec<(f64, Item)>,
    /// The paper's threshold `δ` (Eq. 18-guarded Eq. 16 bounds).
    delta: f64,
    /// Smallest lower bound left unexplored by a budget trip
    /// (`f64::INFINITY` when the traversal ran to the end).
    outstanding: f64,
    /// Eq. 16's per-pivot companion bound the `δ` updates use.
    scand_ub: Vec<f64>,
}

/// One query's center loop, run on the calling thread: the main loop
/// over the candidate centers, the δ-deferred fallback and the ladder's
/// sampling rescue all verify through its per-center
/// [`CenterLoop::step`].
///
/// Centers are verified in the order they arrive — ascending `(lb, id)`
/// in the main loop, ascending `lb` in the fallback — against the
/// strict incumbent, the `k`-th kept value: a center whose `lb` reaches
/// it stops the loop, and a later answer that only ties a kept one
/// lands behind it.
struct CenterLoop<'s> {
    engine: &'s GpSsnEngine<'s>,
    q: &'s GpSsnQuery,
    mode: Mode,
    candidates: &'s [UserId],
    ch: Option<&'s gpssn_graph::ChOracle>,
    meter: &'s BudgetState,
    obs: Option<&'s Obs>,
    policy: DegradationPolicy,
    ws: DijkstraWorkspace,
    chws: gpssn_graph::ChSearch,
    /// The sampler's RNG: `Some` exactly in sampled mode.
    rng: Option<rand::rngs::StdRng>,
    /// Answers kept so far, ascending by `maxdist` (equal values in the
    /// order found); at most [`Mode::keep`] of them, over distinct
    /// `(users, pois)`.
    kept: Vec<GpSsnAnswer>,
    /// Subsets examined.
    pairs: u64,
    /// Smallest `lb` left unresolved by a budget trip or an absorbed
    /// fault (`f64::INFINITY` when every center was either verified or
    /// soundly pruned).
    unresolved: f64,
}

impl<'s> CenterLoop<'s> {
    fn new(
        engine: &'s GpSsnEngine<'s>,
        q: &'s GpSsnQuery,
        mode: Mode,
        candidates: &'s [UserId],
        opts: &QueryOptions,
        meter: &'s BudgetState,
        obs: Option<&'s Obs>,
    ) -> Self {
        CenterLoop {
            engine,
            q,
            mode,
            candidates,
            ch: engine.ch_for(opts),
            meter,
            obs,
            policy: opts.degradation,
            ws: DijkstraWorkspace::new(),
            chws: gpssn_graph::ChSearch::new(),
            rng: match mode {
                Mode::Sampled { seed, .. } => Some(rand::rngs::StdRng::seed_from_u64(seed)),
                Mode::Exact | Mode::TopK(_) => None,
            },
            kept: Vec::new(),
            pairs: 0,
            unresolved: f64::INFINITY,
        }
    }

    /// The `k`-th best value kept so far (`f64::INFINITY` until `k`
    /// answers are kept) — the bound every center is verified against.
    fn kth(&self) -> f64 {
        self.kept
            .get(self.mode.keep() - 1)
            .map_or(f64::INFINITY, |a| a.maxdist)
    }

    /// Steps through `centers` (ascending `(lb, id)`) until one says
    /// stop.
    fn refine(&mut self, centers: &[(f64, PoiId)]) {
        for &(lb, center) in centers {
            if !self.step(lb, center) {
                break;
            }
        }
    }

    fn note_workspace(&self) {
        self.meter.note_workspace(
            self.ws.resets() + self.chws.resets(),
            self.ws.recycles() + self.chws.recycles(),
            self.chws.unpacks(),
        );
    }

    /// The per-center step every mode shares: stop on a budget trip or
    /// once `lb` reaches the incumbent, drop candidates that cannot beat
    /// it, verify `center` (exactly, or by the sampler), and hand any
    /// answer to the collector. Returns `false` when the loop must stop
    /// — centers arrive in ascending `lb`, so none after this one can
    /// do better.
    fn step(&mut self, lb: f64, center: PoiId) -> bool {
        if self.meter.is_tripped() {
            self.unresolved = self.unresolved.min(lb);
            return false;
        }
        let bound = self.kth();
        if lb >= bound {
            return false;
        }
        let engine = self.engine;
        // Top-k verifies against every candidate: a smaller eligible set
        // can switch `verify_center` between row and column distance
        // sweeps, which sum edges in opposite orders and may move a
        // `maxdist` by an ulp.
        let filter_bound = match self.mode {
            Mode::TopK(_) => f64::INFINITY,
            Mode::Exact | Mode::Sampled { .. } => bound,
        };
        let filtered = engine.filter_candidates_for_center(self.candidates, center, filter_bound);
        let found = match (self.mode, self.rng.as_mut()) {
            (Mode::Sampled { samples, .. }, Some(rng)) => crate::sampling::verify_center_sampled(
                engine.ssn, self.q, &filtered, center, bound, samples, rng, self.meter,
            ),
            _ => {
                let mut ctx = VerifyContext {
                    ws: &mut self.ws,
                    ch: self.ch.map(|oracle| ChBackend {
                        oracle,
                        search: &mut self.chws,
                    }),
                    cache: engine.distance_cache.as_ref(),
                    breaker: Some(&engine.ch_breaker),
                    budget: self.meter,
                    obs: self.obs,
                };
                let Some(v) = verify_center_guarded(
                    engine.ssn,
                    self.q,
                    &filtered,
                    center,
                    bound,
                    engine.cfg.enumeration_cap,
                    &mut ctx,
                    self.policy,
                ) else {
                    self.unresolved = self.unresolved.min(lb);
                    return true;
                };
                self.pairs += v.subsets_examined;
                v.answer
            }
        };
        if let Some(ans) = found {
            self.keep(ans);
        }
        if self.meter.is_tripped() {
            // This center's verification was itself cut short, so it
            // remains unresolved (conservative: folding its lb in only
            // widens the reported gap).
            self.unresolved = self.unresolved.min(lb);
            return false;
        }
        true
    }

    /// The collector: inserts `ans` into the kept list behind every
    /// kept answer of equal or smaller `maxdist`, keeping at most
    /// [`Mode::keep`]. An answer repeating a kept `(users, pois)` pair
    /// replaces it only if strictly smaller — two centers with the same
    /// ball can price the same group an ulp apart (see
    /// [`CenterLoop::step`]).
    fn keep(&mut self, ans: GpSsnAnswer) {
        let before = |b: &GpSsnAnswer| b.maxdist.total_cmp(&ans.maxdist).is_le();
        if let Some(dup) = self
            .kept
            .iter()
            .position(|b| b.users == ans.users && b.pois == ans.pois)
        {
            if before(&self.kept[dup]) {
                return;
            }
            self.kept.remove(dup);
        }
        let at = self.kept.partition_point(before);
        self.kept.insert(at, ans);
        self.kept.truncate(self.mode.keep());
    }
}

/// Derives the completion state after a (possibly cut) search.
///
/// `answers` are the verified answers, ascending, of which the mode
/// keeps at most `keep`; the `k`-th slot's value is `f64::INFINITY`
/// while fewer than `keep` were verified. `outstanding` is the smallest
/// lower bound left unresolved (`f64::INFINITY` when the search space
/// was exhausted anyway). A budget trip and an absorbed refinement
/// fault both count as cuts: the cut centers' lower bounds were folded
/// into `outstanding`. No cut means the answers are exact; with a cut,
/// a `k`-th value `<=` every unresolved bound is still provably
/// optimal, otherwise the answers carry the gap `kth − outstanding`
/// (the true `k`-th optimum lies within it). A cut with nothing
/// verified and work left unresolved is a failure — there is no
/// anytime answer to degrade to.
fn completion_of(
    meter: &BudgetState,
    answers: &[GpSsnAnswer],
    keep: usize,
    outstanding: f64,
) -> Completion {
    let kth = answers.get(keep - 1).map_or(f64::INFINITY, |a| a.maxdist);
    let cut = meter.trip().is_some() || meter.faults() > 0;
    if !cut || outstanding >= kth {
        Completion::Exact
    } else if answers.is_empty() {
        Completion::Failed(cut_error(meter))
    } else {
        Completion::TruncatedWithGap((kth - outstanding).max(0.0))
    }
}

/// Collapses a `try_` result into the legacy panicking API: infeasible
/// queries degrade to an exact "no answer" outcome; validation errors
/// panic with the historical messages (so code and tests written
/// against the panicking API keep their expectations).
fn unwrap_outcome(res: Result<QueryOutcome, GpSsnError>) -> QueryOutcome {
    match res {
        Ok(out) => out,
        Err(GpSsnError::Infeasible { .. }) => QueryOutcome::infeasible(),
        Err(e @ (GpSsnError::InvalidQuery(_) | GpSsnError::UnknownUser { .. })) => {
            panic!("invalid query parameters: {e}")
        }
        Err(e @ GpSsnError::RadiusOutOfIndexRange { .. }) => {
            panic!("query radius outside the index's [r_min, r_max] range: {e}")
        }
        Err(other) => panic!("{other}"),
    }
}

/// Resolves a requested thread count against the number of work items:
/// `0` means the machine's available parallelism, and counts beyond the
/// item count are clamped (one item still gets one thread). Both
/// multi-threaded entry points — [`GpSsnEngine::try_query_batch`] and
/// the serving layer — resolve through this one helper so
/// `threads == 0` cannot drift between them.
pub(crate) fn resolve_threads(requested: usize, items: usize) -> usize {
    let t = match requested {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    };
    t.min(items.max(1))
}

/// Answers one query with the panic isolation the batch and serving
/// layers rely on: a panic anywhere inside the query is caught at this
/// boundary and surfaced as [`GpSsnError::Internal`] carrying the panic
/// message. Callers must hold a [`crate::panic_capture::capture_scope`]
/// guard so formatted panic messages survive the unwind.
pub(crate) fn run_isolated(
    engine: &GpSsnEngine<'_>,
    q: &GpSsnQuery,
    opts: &QueryOptions,
    budget: &QueryBudget,
) -> Result<QueryOutcome, GpSsnError> {
    crate::panic_capture::clear_last_message(); // drop stale captures
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.try_query_with_options(q, opts, budget)
    }))
    .unwrap_or_else(|payload| {
        Err(GpSsnError::Internal(crate::panic_capture::panic_message(
            &payload,
        )))
    })
}

/// A minimal binary min-heap keyed by `f64` (NaN-free by construction).
struct MinHeap<T> {
    data: Vec<(f64, T)>,
}

impl<T: Copy> MinHeap<T> {
    fn new() -> Self {
        MinHeap { data: Vec::new() }
    }

    fn push(&mut self, key: f64, value: T) {
        debug_assert!(!key.is_nan());
        self.data.push((key, value));
        let mut i = self.data.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.data[i].0 < self.data[p].0 {
                self.data.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<(f64, T)> {
        if self.data.is_empty() {
            return None;
        }
        let top = self.data.swap_remove(0);
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < self.data.len() && self.data[l].0 < self.data[min].0 {
                min = l;
            }
            if r < self.data.len() && self.data[r].0 < self.data[min].0 {
                min = r;
            }
            if min == i {
                break;
            }
            self.data.swap(i, min);
            i = min;
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_ssn::{synthetic, SyntheticConfig};

    fn small_engine(ssn: &SpatialSocialNetwork) -> GpSsnEngine<'_> {
        let cfg = EngineConfig {
            num_road_pivots: 3,
            num_social_pivots: 3,
            social_index: SocialIndexConfig {
                leaf_size: 16,
                fanout: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        GpSsnEngine::build(ssn, cfg)
    }

    #[test]
    fn answers_validate_against_definition5() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
        let engine = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 3.0,
        };
        let out = engine.query(&q);
        if let Some(ans) = &out.answer {
            crate::query::check_answer(&ssn, &q, ans).expect("answer must satisfy Definition 5");
        }
        assert!(out.metrics.io_pages > 0);
    }

    #[test]
    fn infeasible_gamma_returns_none() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
        let engine = small_engine(&ssn);
        // gamma = 2.0 is unattainable for unit-norm vectors.
        let q = GpSsnQuery {
            user: 0,
            tau: 3,
            gamma: 2.0,
            theta: 0.1,
            radius: 3.0,
        };
        assert!(engine.query(&q).answer.is_none());
    }

    #[test]
    fn stats_collection_populates_counters() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 13);
        let engine = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 1,
            tau: 3,
            gamma: 0.5,
            theta: 0.4,
            radius: 2.0,
        };
        let opts = QueryOptions {
            collect_stats: true,
            ..Default::default()
        };
        let out = engine.query_with_options(&q, &opts);
        let s = &out.metrics.stats;
        assert_eq!(s.users_total, ssn.social().num_users());
        assert_eq!(s.pois_total, ssn.pois().len());
        assert!(s.pairs_total_estimate > 0.0);
    }

    #[test]
    fn ablation_modes_produce_same_answer() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.012), 29);
        let engine = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 2,
            tau: 2,
            gamma: 0.4,
            theta: 0.3,
            radius: 2.5,
        };
        let full = engine.query(&q);
        let no_prune = engine.query_with_options(
            &q,
            &QueryOptions {
                use_interest_pruning: false,
                use_social_distance_pruning: false,
                use_matching_pruning: false,
                use_delta_pruning: false,
                collect_stats: false,
                use_tight_mbr_test: false,
                distance_backend: DistanceBackend::Dijkstra,
                degradation: DegradationPolicy::FailFast,
            },
        );
        match (&full.answer, &no_prune.answer) {
            (Some(a), Some(b)) => {
                assert!(
                    (a.maxdist - b.maxdist).abs() < 1e-6,
                    "{} vs {}",
                    a.maxdist,
                    b.maxdist
                )
            }
            (None, None) => {}
            other => panic!("pruned and unpruned disagree: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "radius outside")]
    fn rejects_radius_outside_index_range() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 11);
        let engine = small_engine(&ssn);
        let q = GpSsnQuery {
            user: 0,
            tau: 2,
            gamma: 0.3,
            theta: 0.3,
            radius: 100.0,
        };
        engine.query(&q);
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 41);
        let engine = small_engine(&ssn);
        let queries: Vec<GpSsnQuery> = (0..8u32)
            .map(|u| GpSsnQuery {
                user: u,
                tau: 2,
                gamma: 0.3,
                theta: 0.3,
                radius: 2.5,
            })
            .collect();
        let opts = QueryOptions::default();
        let unlimited = QueryBudget::unlimited();
        let sequential = engine.try_query_batch(&queries, 1, &opts, &unlimited);
        let parallel = engine.try_query_batch(&queries, 4, &opts, &unlimited);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(parallel.iter()) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(
                s.answer.as_ref().map(|a| (a.users.clone(), a.pois.clone())),
                p.answer.as_ref().map(|a| (a.users.clone(), a.pois.clone()))
            );
            assert_eq!(s.metrics.io_pages, p.metrics.io_pages);
        }
    }

    #[test]
    fn min_heap_orders_by_key() {
        let mut h = MinHeap::new();
        h.push(3.0, 'a');
        h.push(1.0, 'b');
        h.push(2.0, 'c');
        assert_eq!(h.pop(), Some((1.0, 'b')));
        assert_eq!(h.pop(), Some((2.0, 'c')));
        assert_eq!(h.pop(), Some((3.0, 'a')));
        assert_eq!(h.pop(), None);
    }
}
