//! Correctness gate, run after the timed passes. A failure here exits
//! non-zero before any number is printed.

use crate::drive::{Answer, Pass};
use gpssn_core::query::check_answer;
use gpssn_core::{
    Completion, DistanceBackend, EngineConfig, GpSsnAnswer, GpSsnEngine, GpSsnQuery, QueryBudget,
    QueryOptions,
};
use gpssn_ssn::SpatialSocialNetwork;
use std::collections::BTreeMap;

/// Distinct queries compared against the reference engine, spread
/// evenly over the sequence: early queries run on a cold cache, so only
/// later ones exercise cached distances.
pub const REFERENCE_SAMPLE: usize = 16;

fn same(a: &Option<GpSsnAnswer>, b: &Option<GpSsnAnswer>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.users == b.users && a.pois == b.pois && a.maxdist.to_bits() == b.maxdist.to_bits()
        }
        _ => false,
    }
}

/// Checks every exact answer of every pass:
/// * answers to the same query are bit-identical across repeats and
///   passes (clients, workers and tracing must not change them);
/// * every group passes Definition 5 (`check_answer`);
/// * an evenly spaced sample is bit-identical to a reference engine
///   with no distance cache, on the Dijkstra backend.
///
/// Returns the number of distinct queries checked.
pub fn check(
    ssn: &SpatialSocialNetwork,
    queries: &[GpSsnQuery],
    passes: &[&Pass],
) -> Result<usize, String> {
    let mut first: BTreeMap<usize, &Option<GpSsnAnswer>> = BTreeMap::new();
    for pass in passes {
        for s in &pass.samples {
            let Answer::Exact(ans) = &s.answer else {
                continue;
            };
            let qi = s.query % queries.len();
            let seen = *first.entry(qi).or_insert(ans);
            if !same(seen, ans) {
                return Err(format!(
                    "query {qi} answered differently on repeat: {seen:?} vs {ans:?}"
                ));
            }
        }
    }
    for (&qi, ans) in &first {
        if let Some(ans) = ans {
            check_answer(ssn, &queries[qi], ans)
                .map_err(|e| format!("query {qi} ({:?}): invalid answer: {e}", queries[qi]))?;
        }
    }
    let reference = GpSsnEngine::build(
        ssn,
        EngineConfig {
            distance_cache: None,
            ..EngineConfig::default()
        },
    );
    let opts = QueryOptions {
        distance_backend: DistanceBackend::Dijkstra,
        ..QueryOptions::default()
    };
    let step = first.len().div_ceil(REFERENCE_SAMPLE).max(1);
    for (&qi, ans) in first.iter().step_by(step) {
        let q = &queries[qi];
        let want = reference
            .try_query_with_options(q, &opts, &QueryBudget::unlimited())
            .map_err(|e| format!("reference engine failed on query {qi}: {e}"))?;
        if !matches!(want.completion, Completion::Exact) {
            return Err(format!(
                "reference engine did not finish query {qi} exactly"
            ));
        }
        if !same(ans, &want.answer) {
            return Err(format!(
                "query {qi} ({q:?}) differs from the reference engine: {ans:?} vs {:?}",
                want.answer
            ));
        }
    }
    Ok(first.len())
}
