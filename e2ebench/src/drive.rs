//! Drives one pass of a workload through the public API and records
//! what each request returned and how long it took.
//!
//! Two drivers: a closed loop (each client sends its next query only
//! after the previous one returned) calling
//! `GpSsnEngine::try_query_with_options`, and a JSONL stream through
//! `serve_jsonl`, the `gpq serve --queries FILE` path.

use crate::workload::Workload;
use gpssn_core::{
    serve_jsonl, CacheLifetimeStats, Completion, GpSsnAnswer, GpSsnEngine, GpSsnError, GpSsnQuery,
    QueryBudget, QueryOptions, QueryOutcome, ServeConfig, ServeObs, ServeStats,
};
use gpssn_obs::json::{self, Value};
use std::hint::black_box;
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// When a pass stops sending requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Send until this much time has passed since the pass started.
    After(Duration),
    /// Send exactly this many requests.
    Count(usize),
}

impl Stop {
    fn done(self, started: Instant, sent: usize) -> bool {
        match self {
            Stop::After(d) => started.elapsed() >= d,
            Stop::Count(n) => sent >= n,
        }
    }
}

/// What one request returned, as the correctness gate sees it.
#[derive(Debug, Clone)]
pub enum Answer {
    /// An exact completion, with or without a group.
    Exact(Option<GpSsnAnswer>),
    /// An error, or any completion other than exact.
    Failed(String),
}

impl Answer {
    fn from_result(res: Result<QueryOutcome, GpSsnError>) -> Self {
        match res {
            Ok(out) if matches!(out.completion, Completion::Exact) => Answer::Exact(out.answer),
            Ok(out) => Answer::Failed(format!("completion {}", out.completion.rung())),
            Err(e) => Answer::Failed(e.to_string()),
        }
    }
}

/// One request of a pass.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Send position: the query is `queries[query % queries.len()]`.
    pub query: usize,
    /// Send to reply, as the client saw it.
    pub latency: Duration,
    /// Time the engine spent on it (the JSONL `cpu_us` when served).
    pub service: Duration,
    /// Time spent in the serve queue (zero in a closed loop).
    pub queue_wait: Duration,
    pub answer: Answer,
}

/// One pass of a workload.
#[derive(Debug)]
pub struct Pass {
    /// In send order.
    pub samples: Vec<Sample>,
    /// Wall time of the timed part, from the first send to the last reply.
    pub wall: Duration,
    /// Number of requests served at once: clients, or serve workers.
    pub concurrency: usize,
    /// Distance-cache lifetime counters before and after the timed part.
    pub cache_before: CacheLifetimeStats,
    pub cache_after: CacheLifetimeStats,
    pub dist_entries: usize,
    pub ball_entries: usize,
    pub serve: Option<ServeStats>,
}

impl Pass {
    pub fn qps(&self) -> f64 {
        self.samples.len() as f64 / self.wall.as_secs_f64()
    }

    pub fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| matches!(s.answer, Answer::Failed(_)))
            .count()
    }
}

/// Callbacks the traced run hooks into a pass.
#[derive(Clone, Copy)]
pub struct Hooks<'a> {
    /// Runs once, right before the timed part starts (after
    /// `hot_repeat`'s warm-up).
    pub before_timed: &'a dyn Fn(),
    /// Runs on the client thread after every timed closed-loop query.
    pub after_query: &'a (dyn Fn() + Sync),
}

impl Hooks<'_> {
    pub const NONE: Hooks<'static> = Hooks {
        before_timed: &|| (),
        after_query: &|| (),
    };
}

/// Runs one pass of `wl`: `hot_repeat` first sends one untimed warm-up
/// cycle from a single client; `serve_selective` streams with
/// `concurrency` workers; the closed loops run `concurrency` clients.
pub fn pass(
    wl: Workload,
    engine: &GpSsnEngine<'_>,
    queries: &[GpSsnQuery],
    stop: Stop,
    concurrency: usize,
    telemetry: Arc<ServeObs>,
    hooks: Hooks<'_>,
) -> Result<Pass, String> {
    if wl == Workload::HotRepeat {
        let warm = closed_loop(engine, queries, Stop::Count(queries.len()), 1, &|| ());
        if let Some(s) = warm
            .samples
            .iter()
            .find(|s| matches!(s.answer, Answer::Failed(_)))
        {
            return Err(format!("warm-up query {} failed: {:?}", s.query, s.answer));
        }
    }
    (hooks.before_timed)();
    match wl {
        Workload::ColdRefine | Workload::HotRepeat => Ok(closed_loop(
            engine,
            queries,
            stop,
            concurrency,
            hooks.after_query,
        )),
        Workload::ServeSelective => stream(engine, queries, stop, concurrency, telemetry),
    }
}

fn cache_stats(engine: &GpSsnEngine<'_>) -> CacheLifetimeStats {
    engine
        .distance_cache()
        .map(|c| c.lifetime_stats())
        .unwrap_or_default()
}

fn finish(
    engine: &GpSsnEngine<'_>,
    mut samples: Vec<Sample>,
    wall: Duration,
    concurrency: usize,
    cache_before: CacheLifetimeStats,
    serve: Option<ServeStats>,
) -> Pass {
    samples.sort_by_key(|s| s.query);
    let cache = engine.distance_cache();
    Pass {
        samples,
        wall,
        concurrency,
        cache_before,
        cache_after: cache_stats(engine),
        dist_entries: cache.map_or(0, |c| c.dist_entries()),
        ball_entries: cache.map_or(0, |c| c.ball_entries()),
        serve,
    }
}

/// `clients` closed-loop clients sharing one engine, taking the next
/// position of the query sequence (wrapping) from a shared cursor.
fn closed_loop(
    engine: &GpSsnEngine<'_>,
    queries: &[GpSsnQuery],
    stop: Stop,
    clients: usize,
    after_each: &(dyn Fn() + Sync),
) -> Pass {
    let opts = QueryOptions::default();
    let budget = QueryBudget::unlimited();
    let cursor = AtomicUsize::new(0);
    let cache_before = cache_stats(engine);
    let started = Instant::now();
    let client = || {
        let mut out = Vec::new();
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if stop.done(started, k) {
                return out;
            }
            let q = &queries[k % queries.len()];
            let t = Instant::now();
            let res = black_box(engine.try_query_with_options(q, &opts, &budget));
            let latency = t.elapsed();
            after_each();
            out.push(Sample {
                query: k,
                latency,
                service: latency,
                queue_wait: Duration::ZERO,
                answer: Answer::from_result(res),
            });
        }
    };
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a benchmark client panicked"))
            .collect()
    });
    let wall = started.elapsed();
    finish(engine, samples, wall, clients, cache_before, None)
}

/// Most requests the streaming client leaves unanswered at once. A
/// client that pipelines its whole file keeps the serve queue full, and
/// its latency then reads back the queue length; a window this size
/// keeps both workers busy and the queue short.
const STREAM_WINDOW: usize = 32;

/// Responses written so far, shared by the response sink (on the serve
/// workers) and the request source (on the calling thread).
#[derive(Default)]
struct Answered {
    count: Mutex<usize>,
    changed: Condvar,
}

/// Hands `serve_jsonl` one request line at a time, generated on demand
/// once fewer than [`STREAM_WINDOW`] requests are unanswered, and notes
/// when each line was handed over.
struct RequestLines<'a> {
    queries: &'a [GpSsnQuery],
    stop: Stop,
    started: Instant,
    answered: &'a Answered,
    sent: Vec<Instant>,
    line: Vec<u8>,
    pos: usize,
}

impl Read for RequestLines<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for RequestLines<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.line.len() && !self.stop.done(self.started, self.sent.len()) {
            let k = self.sent.len();
            let mut answered = self.answered.count.lock().expect("answer count poisoned");
            while k - *answered >= STREAM_WINDOW {
                answered = self
                    .answered
                    .changed
                    .wait(answered)
                    .expect("answer count poisoned");
            }
            drop(answered);
            let q = &self.queries[k % self.queries.len()];
            self.line.clear();
            writeln!(
                self.line,
                "{{\"id\":{k},\"user\":{},\"tau\":{},\"gamma\":{},\"theta\":{},\"r\":{}}}",
                q.user, q.tau, q.gamma, q.theta, q.radius
            )?;
            self.pos = 0;
            self.sent.push(Instant::now());
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Collects response lines with the time each one was completed.
struct ResponseLines<'a> {
    answered: &'a Answered,
    pending: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl Write for ResponseLines<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let at = Instant::now();
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            self.lines.push((at, text));
            *self.answered.count.lock().expect("answer count poisoned") += 1;
            self.answered.changed.notify_one();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams the query sequence as JSONL through `serve_jsonl` with
/// `workers` workers, the default queue and overload policy, and the
/// given serve telemetry, at most [`STREAM_WINDOW`] requests ahead of
/// the responses.
fn stream(
    engine: &GpSsnEngine<'_>,
    queries: &[GpSsnQuery],
    stop: Stop,
    workers: usize,
    telemetry: Arc<ServeObs>,
) -> Result<Pass, String> {
    let cfg = ServeConfig {
        threads: workers,
        telemetry,
        ..ServeConfig::default()
    };
    let cache_before = cache_stats(engine);
    let started = Instant::now();
    let answered = Answered::default();
    let mut input = RequestLines {
        queries,
        stop,
        started,
        answered: &answered,
        sent: Vec::new(),
        line: Vec::new(),
        pos: 0,
    };
    let mut out = ResponseLines {
        answered: &answered,
        pending: Vec::new(),
        lines: Vec::new(),
    };
    let stats = serve_jsonl(engine, &cfg, &mut input, &mut out)
        .map_err(|e| format!("serve_jsonl failed: {e}"))?;
    let lines = out.lines;
    if lines.len() != input.sent.len() {
        return Err(format!(
            "sent {} requests but got {} responses",
            input.sent.len(),
            lines.len()
        ));
    }
    let wall = lines.last().map_or(Duration::ZERO, |(t, _)| *t - started);
    let samples = lines
        .iter()
        .enumerate()
        .map(|(k, (at, line))| response_sample(k, *at - input.sent[k], line))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(finish(
        engine,
        samples,
        wall,
        workers,
        cache_before,
        Some(stats),
    ))
}

/// Parses the `k`-th response line. Responses arrive in request order,
/// so its id must be `k`.
fn response_sample(k: usize, latency: Duration, line: &str) -> Result<Sample, String> {
    let v = json::parse(line).map_err(|e| format!("response {k} is not JSON ({e}): {line}"))?;
    let num = |key: &str| v.get(key).and_then(Value::as_f64);
    if num("id") != Some(k as f64) {
        return Err(format!("response {k} out of order: {line}"));
    }
    let micros = |key: &str| Duration::from_micros(num(key).unwrap_or(0.0) as u64);
    let ok = v.get("status").and_then(Value::as_str) == Some("ok")
        && v.get("completion").and_then(Value::as_str) == Some("exact");
    let answer = if !ok {
        Answer::Failed(line.to_string())
    } else {
        match num("maxdist") {
            None => Answer::Exact(None),
            Some(maxdist) => Answer::Exact(Some(GpSsnAnswer {
                users: ids(&v, "users").ok_or_else(|| format!("bad users: {line}"))?,
                pois: ids(&v, "pois").ok_or_else(|| format!("bad pois: {line}"))?,
                maxdist,
            })),
        }
    };
    Ok(Sample {
        query: k,
        latency,
        service: micros("cpu_us"),
        queue_wait: micros("queue_wait_us"),
        answer,
    })
}

fn ids(v: &Value, key: &str) -> Option<Vec<u32>> {
    v.get(key)?
        .as_array()?
        .iter()
        .map(|x| x.as_f64().map(|f| f as u32))
        .collect()
}
