//! Per-layer attribution for the traced run, from what the program
//! already exposes: the `Obs` registry (phase and build-stage
//! histograms, per-query counters), the spans it records, and the
//! benchmark's own timers around the public calls.

use crate::drive::Pass;
use crate::{median, percentile, ratio, Report};
use gpssn_obs::{Snapshot, SpanRecord, Tracer};
use std::collections::{BTreeMap, HashMap};

/// The ten build stages the index builders report.
pub const BUILD_STAGES: [&str; 10] = [
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
];

/// Self time per span name: a span's duration minus the part its
/// children cover.
#[derive(Debug, Default)]
pub struct SpanSelf {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub spans: u64,
    pub dropped: u64,
}

impl SpanSelf {
    /// Folds every finished span into the totals and empties the ring.
    /// Called between queries, so no span is open; a ring that
    /// overflowed since the last drain shows in `dropped`.
    pub fn drain(&mut self, tracer: &Tracer) {
        let recs = tracer.records();
        self.dropped += tracer.dropped();
        tracer.clear();
        self.add(&recs);
    }

    fn add(&mut self, recs: &[SpanRecord]) {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for r in recs.iter().filter(|r| r.parent != 0) {
            *child_ns.entry(r.parent).or_default() += r.dur_ns;
        }
        for r in recs {
            let own = r
                .dur_ns
                .saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
            *self.self_ns.entry(r.name).or_default() += own;
        }
        self.spans += recs.len() as u64;
    }

    fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }
}

fn phase_ns(snap: &Snapshot, phase: &str) -> f64 {
    snap.histogram("gpssn_phase_duration_ns", &[("phase", phase)])
        .map_or(0.0, |h| h.sum as f64)
}

/// What the traced run measured, beyond the registry snapshot.
pub struct Traced<'a> {
    /// The untraced pass: end-to-end timings, the overhead base.
    pub plain: &'a Pass,
    /// The same requests on an engine with `Obs` attached.
    pub traced: &'a Pass,
    /// The same requests at the other concurrency (1 vs 2).
    pub scaled: &'a Pass,
    pub snap: &'a Snapshot,
    pub spans: &'a SpanSelf,
    pub generate_s: f64,
    pub build_s: f64,
}

impl Traced<'_> {
    /// Engine time of the traced pass, as the benchmark timed it: the
    /// closed loops' per-query latency, or the JSONL `cpu_us` when
    /// served (a served request's latency includes its queue wait).
    fn query_ns(&self) -> f64 {
        self.traced
            .samples
            .iter()
            .map(|s| s.service.as_nanos() as f64)
            .sum()
    }

    /// How much slower the traced pass ran than the untraced one, in
    /// percent: total query time for the closed loops, wall time for
    /// the stream.
    fn overhead_pct(&self) -> f64 {
        let time = |p: &Pass| match p.serve {
            Some(_) => p.wall.as_secs_f64(),
            None => p.samples.iter().map(|s| s.latency.as_secs_f64()).sum(),
        };
        (time(self.traced) / time(self.plain) - 1.0) * 100.0
    }

    /// Throughput at two clients or workers over throughput at one.
    fn scaling_2v1(&self) -> f64 {
        let (two, one) = if self.plain.concurrency == 2 {
            (self.plain, self.scaled)
        } else {
            (self.scaled, self.plain)
        };
        two.qps() / one.qps()
    }

    pub fn report(&self, rep: &mut Report) {
        let snap = self.snap;
        let n = self.traced.samples.len() as f64;
        let count = |name: &str, labels: &[(&str, &str)]| snap.counter(name, labels) as f64;
        let per_query = |name: &str, labels: &[(&str, &str)]| count(name, labels) / n;
        let query_ns = self.query_ns();
        let social_ns = phase_ns(snap, "prune_social");
        let road_ns = phase_ns(snap, "prune_road");
        let refine_ns = phase_ns(snap, "refine") + phase_ns(snap, "refine_fallback");

        rep.add("ssn.generate_s", self.generate_s, "s");
        rep.add("index.build_s", self.build_s, "s");
        for stage in BUILD_STAGES {
            let ns = snap
                .histogram("gpssn_build_stage_ns", &[("stage", stage)])
                .map_or(0, |h| h.sum);
            rep.add(&format!("index.stage.{stage}_s"), ns as f64 / 1e9, "s");
        }
        rep.add(
            "index.ch.shortcuts",
            count("gpssn_build_ch_shortcuts_total", &[]),
            "count",
        );

        rep.add("prune_social.ms_per_query", social_ns / n / 1e6, "ms");
        rep.add("prune_social.share", ratio(social_ns, query_ns), "frac");
        rep.add(
            "prune_social.candidate_users",
            per_query("gpssn_candidate_users_total", &[]),
            "count",
        );
        rep.add(
            "prune_social.survival",
            ratio(
                count("gpssn_candidate_users_total", &[]),
                count("gpssn_users_scanned_total", &[]),
            ),
            "frac",
        );

        rep.add("prune_road.ms_per_query", road_ns / n / 1e6, "ms");
        rep.add("prune_road.share", ratio(road_ns, query_ns), "frac");
        rep.add(
            "prune_road.heap_pops",
            per_query("gpssn_heap_pops_total", &[]),
            "count",
        );
        rep.add(
            "prune_road.io_pages",
            per_query("gpssn_io_pages_total", &[]),
            "count",
        );
        rep.add(
            "prune_road.candidate_pois",
            per_query("gpssn_candidate_pois_total", &[]),
            "count",
        );

        rep.add("refine.ms_per_query", refine_ns / n / 1e6, "ms");
        rep.add("refine.share", ratio(refine_ns, query_ns), "frac");
        rep.add(
            "refine.pairs_refined",
            per_query("gpssn_pairs_refined_total", &[]),
            "count",
        );
        rep.add(
            "refine.groups_enumerated",
            per_query("gpssn_groups_enumerated_total", &[]),
            "count",
        );
        for (metric, span) in [
            ("refine.ball_self_ms", "ball"),
            ("refine.verify_center_self_ms", "verify_center"),
            ("refine.dist_ch_self_ms", "ch_p2p"),
            ("refine.dist_dijkstra_self_ms", "dijkstra_batch"),
        ] {
            rep.add(metric, self.spans.ms(span) / n, "ms");
        }

        let ch = [("backend", "ch")];
        let dijkstra = [("backend", "dijkstra")];
        rep.add(
            "graph.ch.batches",
            per_query("gpssn_distance_batches_total", &ch),
            "count",
        );
        rep.add(
            "graph.ch.settles",
            per_query("gpssn_settles_total", &ch),
            "count",
        );
        rep.add(
            "graph.ch.unpacks",
            per_query("gpssn_ch_unpacks_total", &[]),
            "count",
        );
        rep.add(
            "graph.dijkstra.batches",
            per_query("gpssn_distance_batches_total", &dijkstra),
            "count",
        );
        rep.add(
            "graph.dijkstra.settles",
            per_query("gpssn_settles_total", &dijkstra),
            "count",
        );
        rep.add(
            "graph.ws.resets",
            per_query("gpssn_workspace_resets_total", &[]),
            "count",
        );

        let lookups = |kind: &str, result: &str| {
            count(
                "gpssn_cache_lookups_total",
                &[("kind", kind), ("result", result)],
            )
        };
        let hit_rate = |kind: &str| {
            let hits = lookups(kind, "hit");
            ratio(hits, hits + lookups(kind, "miss"))
        };
        let (before, after) = (&self.traced.cache_before, &self.traced.cache_after);
        let life_hits = (after.dist_hits - before.dist_hits) as f64;
        let life_misses = (after.dist_misses - before.dist_misses) as f64;
        rep.add("cache.dist.hit_rate", hit_rate("dist"), "frac");
        rep.add(
            "cache.dist.hit_rate_lifetime",
            ratio(life_hits, life_hits + life_misses),
            "frac",
        );
        rep.add("cache.ball.hit_rate", hit_rate("ball"), "frac");
        rep.add(
            "cache.dist.evictions",
            (after.dist_evictions - before.dist_evictions) as f64,
            "count",
        );
        rep.add(
            "cache.dist.entries",
            self.traced.dist_entries as f64,
            "count",
        );

        // Serving-layer timings come from the untraced pass.
        let plain = self.plain;
        let waits: Vec<f64> = plain.samples.iter().map(|s| ms(s.queue_wait)).collect();
        let service: Vec<f64> = plain.samples.iter().map(|s| ms(s.service)).collect();
        rep.add("serve.queue_wait_p50_ms", median(&waits), "ms");
        rep.add("serve.queue_wait_p95_ms", percentile(&waits, 0.95), "ms");
        rep.add("serve.service_p50_ms", median(&service), "ms");
        rep.add("serve.service_p95_ms", percentile(&service, 0.95), "ms");
        rep.add(
            "serve.worker_busy_frac",
            service.iter().sum::<f64>()
                / (plain.concurrency as f64 * plain.wall.as_secs_f64() * 1e3),
            "frac",
        );
        rep.add("serve.scaling_2v1", self.scaling_2v1(), "x");

        let latencies: Vec<f64> = plain.samples.iter().map(|s| ms(s.latency)).collect();
        rep.add("latency_p99_ms", percentile(&latencies, 0.99), "ms");

        rep.add("obs.traced_overhead_pct", self.overhead_pct(), "%");
        rep.add(
            "obs.unattributed_frac",
            1.0 - ratio(social_ns + road_ns + refine_ns, query_ns),
            "frac",
        );
        rep.add("obs.spans", self.spans.spans as f64, "count");
        rep.add("obs.spans_dropped", self.spans.dropped as f64, "count");
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
