//! End-to-end GP-SSN benchmark: builds a dataset and an engine through
//! the public library API, drives one workload for a fixed time, checks
//! every answer, and prints its metrics by name and unit. The last line
//! of standard output is one JSON object with the results.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold_refine --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no `Obs`
//! attached. `--trace 1` prints the per-layer metrics instead (see
//! README.md).

mod drive;
mod gate;
mod layers;
mod workload;

use drive::{Hooks, Pass, Stop};
use gpssn_core::{EngineConfig, GpSsnEngine, ServeObs, ServeObsConfig};
use gpssn_obs::{Obs, ObsConfig, TailConfig};
use gpssn_ssn::SpatialSocialNetwork;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workload::Workload;

const USAGE: &str = "usage: e2ebench --workload <cold_refine|hot_repeat|serve_selective> \
                     --seed N --seconds S --trace <0|1> [--dataset-seed N]";

/// Dataset seed unless `--dataset-seed` says otherwise: `--seed` picks
/// the queries, the dataset stays fixed.
const DATASET_SEED: u64 = 42;

/// Set-ups timed per untraced run, half before and half after the
/// timed pass; `setup_s` is their median. One set-up takes about 0.1 s,
/// and on a shared VM speed wanders by tens of percent over seconds, so
/// the samples are spread over the whole run.
const SETUP_REPS: usize = 25;

/// Span-ring capacity of the traced run. The closed loops drain the
/// ring after every query; the stream drains it once at the end.
const TRACE_CAPACITY: usize = 1 << 22;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    dataset_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dataset_seed = DATASET_SEED;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--dataset-seed" => dataset_seed = num()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dataset_seed,
    })
}

/// Metrics in print order, with the request tallies of the JSON line.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn count(&mut self, passes: &[&Pass]) {
        for p in passes {
            self.attempted += p.samples.len();
            self.failed += p.failed();
        }
    }

    /// A table for people, then the one JSON line for machines.
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A property of the run, printed for the record (not a metric).
fn property(name: &str, value: impl std::fmt::Display) {
    println!("# {name} = {value}");
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted values; 0 for
/// no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Clients of the closed loops; serve workers of the stream.
fn concurrency(wl: Workload) -> usize {
    match wl {
        Workload::ServeSelective => 2,
        Workload::ColdRefine | Workload::HotRepeat => 1,
    }
}

fn describe_dataset(args: &Args, ssn: &SpatialSocialNetwork, distinct_queries: usize) {
    let (kind, scale) = args.workload.dataset();
    property("workload", args.workload.name());
    property("dataset", format!("{} scale {scale}", kind.name()));
    property("dataset_seed", args.dataset_seed);
    property("query_seed", args.seed);
    property("users", ssn.social().num_users());
    property("road_vertices", ssn.road().num_vertices());
    property("pois", ssn.pois().len());
    property("distinct_queries_in_sequence", distinct_queries);
}

fn describe_pass(label: &str, pass: &Pass) {
    let (before, after) = (&pass.cache_before, &pass.cache_after);
    property(&format!("{label}.requests"), pass.samples.len());
    property(&format!("{label}.concurrency"), pass.concurrency);
    property(
        &format!("{label}.dist_cache"),
        format!(
            "{} of {} entries, {} evictions in the timed part",
            pass.dist_entries,
            gpssn_core::DistanceCacheConfig::default().dist_capacity,
            after.dist_evictions - before.dist_evictions
        ),
    );
    property(
        &format!("{label}.ball_cache"),
        format!(
            "{} of {} entries",
            pass.ball_entries,
            gpssn_core::DistanceCacheConfig::default().ball_capacity
        ),
    );
    if let Some(drive::Answer::Failed(why)) = pass
        .samples
        .iter()
        .map(|s| &s.answer)
        .find(|a| matches!(a, drive::Answer::Failed(_)))
    {
        property(&format!("{label}.first_failure"), why);
    }
    if let Some(s) = &pass.serve {
        property(
            &format!("{label}.serve_stats"),
            format!(
                "submitted {} served {} shed_expired {} shed_overloaded {} rejected {}",
                s.submitted, s.served, s.shed_expired, s.shed_overloaded, s.rejected
            ),
        );
    }
}

/// Times `reps` set-ups (dataset generation plus engine build), each
/// dropped before the next.
fn time_setups(args: &Args, reps: usize, out: &mut Vec<f64>) {
    let (kind, scale) = args.workload.dataset();
    for _ in 0..reps {
        let t = Instant::now();
        let ssn = kind.build(scale, args.dataset_seed);
        let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
        black_box(&engine);
        out.push(t.elapsed().as_secs_f64());
    }
}

/// `--trace 0`: the end-to-end metrics, no `Obs` attached.
fn untraced(args: &Args) -> Result<Report, String> {
    let wl = args.workload;
    let (kind, scale) = wl.dataset();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    time_setups(args, SETUP_REPS / 2, &mut setup);
    let t = Instant::now();
    let ssn = kind.build(scale, args.dataset_seed);
    let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
    setup.push(t.elapsed().as_secs_f64());

    let queries = wl.queries(&ssn, args.seed);
    describe_dataset(args, &ssn, queries.len());
    let pass = drive::pass(
        wl,
        &engine,
        &queries,
        Stop::After(Duration::from_secs(args.seconds)),
        concurrency(wl),
        Arc::new(ServeObs::default()),
        Hooks::NONE,
    )?;
    let rss = peak_rss_mb()?;
    describe_pass("run", &pass);
    drop(engine);
    time_setups(args, SETUP_REPS - setup.len(), &mut setup);
    property(
        "setup_s.min_median_max",
        format!(
            "{:.4} {:.4} {:.4}",
            percentile(&setup, 0.0),
            median(&setup),
            percentile(&setup, 1.0)
        ),
    );
    let checked = gate::check(&ssn, &queries, &[&pass])?;
    property("gate.distinct_queries_checked", checked);

    let latencies: Vec<f64> = pass
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let mut rep = Report::default();
    rep.count(&[&pass]);
    rep.add("setup_s", median(&setup), "s");
    rep.add("qps", pass.qps(), "1/s");
    rep.add("latency_p50_ms", median(&latencies), "ms");
    rep.add("latency_p95_ms", percentile(&latencies, 0.95), "ms");
    rep.add("peak_rss_mb", rss, "MB");
    Ok(rep)
}

/// `--trace 1`: the per-layer metrics. Three passes over the same
/// requests, each on a fresh engine so that each starts with an empty
/// cache: untraced (timed for half of `--seconds`, which keeps the whole
/// run near `--seconds`), traced, and at the other concurrency (1 vs 2)
/// for the scaling row.
fn traced(args: &Args) -> Result<Report, String> {
    let wl = args.workload;
    let (kind, scale) = wl.dataset();
    let t = Instant::now();
    let ssn = kind.build(scale, args.dataset_seed);
    let generate_s = t.elapsed().as_secs_f64();
    let queries = wl.queries(&ssn, args.seed);
    describe_dataset(args, &ssn, queries.len());
    let conc = concurrency(wl);

    let plain = {
        let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
        drive::pass(
            wl,
            &engine,
            &queries,
            Stop::After(Duration::from_secs(args.seconds) / 2),
            conc,
            Arc::new(ServeObs::default()),
            Hooks::NONE,
        )?
    };
    let n = plain.samples.len();
    describe_pass("untraced", &plain);

    let obs = Arc::new(Obs::new(ObsConfig {
        metrics: true,
        tracing: true,
        trace_capacity: TRACE_CAPACITY,
    }));
    let t = Instant::now();
    let engine = GpSsnEngine::build(
        &ssn,
        EngineConfig {
            obs: Some(Arc::clone(&obs)),
            ..EngineConfig::default()
        },
    );
    let build_s = t.elapsed().as_secs_f64();
    // Keep every served request's spans: tail sampling would drop most.
    let telemetry = Arc::new(ServeObs::new(&ServeObsConfig {
        tail: TailConfig {
            head_rate: 1,
            ..TailConfig::default()
        },
        ..ServeObsConfig::default()
    }));
    let spans = Mutex::new(layers::SpanSelf::default());
    let drain = || {
        spans
            .lock()
            .expect("span totals poisoned")
            .drain(obs.tracer())
    };
    // Record nothing during `hot_repeat`'s warm-up.
    obs.set_metrics(false);
    obs.set_tracing(false);
    let start_recording = || {
        obs.tracer().clear();
        obs.set_metrics(true);
        obs.set_tracing(true);
    };
    let traced = drive::pass(
        wl,
        &engine,
        &queries,
        Stop::Count(n),
        conc,
        telemetry,
        Hooks {
            before_timed: &start_recording,
            after_query: &drain,
        },
    )?;
    drain();
    let snap = obs.base_registry().snapshot();
    describe_pass("traced", &traced);
    drop(engine);

    let other = if conc == 1 { 2 } else { 1 };
    let scaled = {
        let engine = GpSsnEngine::build(&ssn, EngineConfig::default());
        drive::pass(
            wl,
            &engine,
            &queries,
            Stop::Count(n),
            other,
            Arc::new(ServeObs::default()),
            Hooks::NONE,
        )?
    };
    describe_pass("scaled", &scaled);
    let checked = gate::check(&ssn, &queries, &[&plain, &traced, &scaled])?;
    property("gate.distinct_queries_checked", checked);

    let spans = spans.into_inner().expect("span totals poisoned");
    for (name, ns) in &spans.self_ns {
        property(&format!("span_self_ms.{name}"), *ns as f64 / 1e6);
    }
    let mut rep = Report::default();
    let passes = [&plain, &traced, &scaled];
    rep.count(&passes);
    layers::Traced {
        plain: &plain,
        traced: &traced,
        scaled: &scaled,
        snap: &snap,
        spans: &spans,
        generate_s,
        build_s,
    }
    .report(&mut rep);
    rep.add(
        "failed_frac",
        ratio(rep.failed as f64, rep.attempted as f64),
        "frac",
    );
    Ok(rep)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(rep) => rep.print(),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
