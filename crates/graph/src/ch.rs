//! Contraction-hierarchy distance oracle.
//!
//! Repeated point-to-point and many-to-many `dist_RN` probes are the hot
//! path of GP-SSN refinement (Algorithm 2): every `verify_center` call
//! fills an `S × R` distance matrix, and plain Dijkstra pays the full
//! road-network search cost per row or column. A contraction hierarchy
//! ([Geisberger et al. 2008]) preprocesses the graph once — contracting
//! vertices in importance order and inserting *shortcut* arcs that
//! preserve shortest paths among the not-yet-contracted rest — after
//! which a point-to-point query is a pair of tiny Dijkstra runs that only
//! ever relax arcs towards *higher-ranked* vertices.
//!
//! ## Exact answers
//!
//! The rest of the engine treats distances as exact tokens: caches key on
//! them, refinement compares them with `total_cmp`, and the equivalence
//! suite asserts engines agree bitwise. [`CsrGraph`] rounds every weight
//! onto a power-of-two grid ([`crate::csr::GRID_BITS`]), so every path
//! sum below [`crate::csr::GRID_EXACT_LIMIT`] is computed exactly, in
//! any association order. A shortcut weight `w₁ + w₂` is then the exact
//! length of the path it stands for, and the best up-down meeting key is
//! the exact shortest distance — the same bits Dijkstra's left-to-right
//! `dist[v] = dist[u] + w` accumulation produces. The oracle reports that
//! key directly. Sums that exceed the limit round, but monotonically, so
//! they stay at or above it and never undercut a true distance below it.
//! Seed distances must be grid values too (`NetworkPoint` offsets are).
//!
//! [Geisberger et al. 2008]: https://doi.org/10.1007/978-3-540-68552-4_24

use crate::csr::{snap, CsrGraph, NodeId};
use crate::dijkstra::INFINITY;
use crate::heap::IndexedMinHeap;
use std::io::{self, BufRead, Write};

/// Rank sentinel for not-yet-contracted vertices during construction.
const UNRANKED: u32 = u32::MAX;

/// Settle cap for witness searches during contraction. Witness searches
/// are *sound under truncation*: giving up early only fails to find a
/// witness, which adds a redundant shortcut — never drops a needed one.
const WITNESS_SETTLE_CAP: usize = 64;

/// Minimum items before a build phase fans out over worker threads —
/// below this the spawn overhead dominates. Thread-count invariance does
/// not depend on it (results are always merged in input order), so it is
/// a pure tuning knob.
const PAR_BUILD_FLOOR: usize = 256;

/// One arc of the contraction arena: every original edge and every
/// shortcut, in creation order.
#[derive(Debug, Clone, Copy)]
struct ArenaArc {
    tail: NodeId,
    head: NodeId,
    /// The original edge weight, or `w₁ + w₂` of the two arcs a shortcut
    /// bridges (the exact length of the path it stands for).
    weight: f64,
}

/// An upward-graph arc (towards a higher-ranked vertex).
#[derive(Debug, Clone, Copy)]
struct UpArc {
    head: NodeId,
    weight: f64,
}

/// A contraction-hierarchy distance oracle over a [`CsrGraph`].
///
/// Build once with [`ChOracle::build`]; answer point-to-point and
/// many-to-many queries through a reusable [`ChSearch`] workspace.
/// Answers are bit-identical to [`crate::dijkstra::dijkstra_targets`]
/// over the same graph for grid-valued seeds (see the module docs).
#[derive(Debug, Clone)]
pub struct ChOracle {
    n: usize,
    /// Contraction order: `rank[v]` is `v`'s position (0 = contracted
    /// first = least important).
    rank: Vec<u32>,
    /// CSR offsets into `up_arcs`, length `n + 1`.
    up_offsets: Vec<u32>,
    up_arcs: Vec<UpArc>,
    arena: Vec<ArenaArc>,
    /// Arena prefix holding the original edges (== input edge count).
    num_original: usize,
}

impl ChOracle {
    /// Number of vertices the oracle was built over.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of shortcut arcs the contraction inserted.
    #[inline]
    pub fn num_shortcuts(&self) -> usize {
        self.arena.len() - self.num_original
    }

    /// Builds the hierarchy using all available cores (equivalent to
    /// [`ChOracle::build_with_threads`] with `threads = 0`; the result is
    /// identical for every thread count).
    pub fn build(graph: &CsrGraph) -> ChOracle {
        Self::build_with_threads(graph, 0)
    }

    /// [`ChOracle::build`] with an explicit thread count (`0` = all
    /// available cores). The hierarchy is **bit-identical for every
    /// thread count**; see [`ChOracle::build_with_stats`].
    pub fn build_with_threads(graph: &CsrGraph, threads: usize) -> ChOracle {
        Self::build_with_stats(graph, threads).0
    }

    /// Parallel deterministic contraction, also returning build counters.
    ///
    /// Vertices are contracted in *independent-set rounds*: each round
    /// selects every unranked vertex whose `(priority, id)` key is a
    /// strict local minimum among its unranked neighbours — an
    /// independent set, since two adjacent vertices cannot both be local
    /// minima — simulates all their contractions concurrently against
    /// the immutable pre-round adjacency (scoped threads, one reused
    /// [`WitnessSearch`] workspace per worker), and then merges
    /// shortcuts and assigns ranks sequentially in ascending key order.
    /// Selection, the per-candidate witness searches, and the merge are
    /// all functions of the pre-round state alone, so the rank
    /// permutation and the arena (and with them the upward CSR and every
    /// serialized byte) are identical for every `threads` value.
    ///
    /// Witness paths may route through other same-round vertices; each
    /// of those contributes its own shortcut (or a strictly shorter
    /// witness, recursively), so distances among the surviving vertices
    /// are preserved collectively — the standard independent-set CH
    /// argument. Priorities are kept neighbourhood-exact: after a merge,
    /// every live neighbour of a contracted vertex is re-simulated
    /// (fanned out and merged in vertex order).
    pub fn build_with_stats(graph: &CsrGraph, threads: usize) -> (ChOracle, ChBuildStats) {
        let n = graph.num_nodes();
        // Live adjacency, mutated as contraction inserts shortcuts.
        // Entries are oriented self -> neighbour.
        let mut adj: Vec<Vec<AdjArc>> = vec![Vec::new(); n];
        let mut arena: Vec<ArenaArc> = Vec::with_capacity(graph.num_edges() * 2);
        for (u, v, w) in graph.edges() {
            arena.push(ArenaArc {
                tail: u,
                head: v,
                weight: w,
            });
            adj[u as usize].push(AdjArc { to: v, weight: w });
            adj[v as usize].push(AdjArc { to: u, weight: w });
        }
        let num_original = arena.len();

        let mut rank: Vec<u32> = vec![UNRANKED; n];
        let mut deleted_neighbors: Vec<u32> = vec![0; n];

        let workers = if threads == 0 {
            std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1)
        } else {
            threads
        }
        .min(n.max(1));
        let mut pool: Vec<BuildWorkspace> = (0..workers).map(|_| BuildWorkspace::new(n)).collect();
        let mut stats = ChBuildStats {
            workspaces: workers as u32,
            ..ChBuildStats::default()
        };

        // Initial priorities: one contraction simulation per vertex,
        // independent given the (immutable) initial adjacency.
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        let mut key: Vec<u64> = vec![0; n];
        {
            let adj = &adj;
            let rank = &rank;
            let deleted = &deleted_neighbors;
            let t0 = std::time::Instant::now();
            let keys = fan_out(&mut pool, &all, |ws, v| {
                key_bits(simulate_priority(adj, rank, deleted, ws, v))
            });
            stats.par_ns += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            key.copy_from_slice(&keys);
        }
        drop(all);

        let mut next_rank: u32 = 0;
        let mut selected: Vec<NodeId> = Vec::new();
        let mut affected: Vec<NodeId> = Vec::new();
        while (next_rank as usize) < n {
            stats.rounds += 1;
            // Select the round's independent set: unranked local minima
            // of (key, id) over unranked neighbours, then order them by
            // ascending key for rank assignment and shortcut merging.
            selected.clear();
            for v in 0..n {
                if rank[v] != UNRANKED {
                    continue;
                }
                let kv = (key[v], v as u32);
                let local_min = adj[v].iter().all(|arc| {
                    rank[arc.to as usize] != UNRANKED || (key[arc.to as usize], arc.to) >= kv
                });
                if local_min {
                    selected.push(v as NodeId);
                }
            }
            selected.sort_unstable_by_key(|&v| (key[v as usize], v));

            // Simulate every candidate's contraction against the
            // pre-round adjacency (ranks of this round's vertices are
            // still unset, so the candidates cannot see each other as
            // contracted — the computation is order-free).
            let outputs: Vec<CandidateOutput> = {
                let adj = &adj;
                let rank = &rank;
                let t0 = std::time::Instant::now();
                let outputs = fan_out(&mut pool, &selected, |ws, v| {
                    contract_candidate(adj, rank, ws, v)
                });
                stats.par_ns += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                outputs
            };

            // Merge in selection order: assign ranks, bump contracted-
            // neighbour counts, and append shortcuts to the arena and the
            // live adjacency.
            affected.clear();
            for out in outputs {
                rank[out.v as usize] = next_rank;
                next_rank += 1;
                for x in &out.neighbors {
                    deleted_neighbors[x.to as usize] += 1;
                    affected.push(x.to);
                }
                for &(ui, uj) in &out.shortcuts {
                    let sum = ui.weight + uj.weight;
                    arena.push(ArenaArc {
                        tail: ui.to,
                        head: uj.to,
                        weight: sum,
                    });
                    adj[ui.to as usize].push(AdjArc {
                        to: uj.to,
                        weight: sum,
                    });
                    adj[uj.to as usize].push(AdjArc {
                        to: ui.to,
                        weight: sum,
                    });
                }
            }

            // Refresh the priorities whose neighbourhoods changed.
            affected.sort_unstable();
            affected.dedup();
            affected.retain(|&x| rank[x as usize] == UNRANKED);
            {
                let adj = &adj;
                let rank = &rank;
                let deleted = &deleted_neighbors;
                let t0 = std::time::Instant::now();
                let keys = fan_out(&mut pool, &affected, |ws, v| {
                    key_bits(simulate_priority(adj, rank, deleted, ws, v))
                });
                stats.par_ns += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                for (&v, &kb) in affected.iter().zip(keys.iter()) {
                    key[v as usize] = kb;
                }
            }
        }

        stats.shortcuts = arena.len() - num_original;
        for ws in &pool {
            stats.witness_resets += ws.witness.resets;
            stats.witness_recycles += ws.witness.recycles;
        }

        let (up_offsets, up_arcs) = build_up_csr(n, &rank, &arena);
        (
            ChOracle {
                n,
                rank,
                up_offsets,
                up_arcs,
                arena,
                num_original,
            },
            stats,
        )
    }

    /// Exact distances from `seeds` to every entry of `targets`,
    /// mirroring [`crate::dijkstra::dijkstra_targets`] restricted to the
    /// targets (bit-identical values). Also returns the number of
    /// vertices settled across the underlying upward searches — the unit
    /// budgets charge, comparable to (and much smaller than) Dijkstra
    /// settle counts.
    pub fn dists(
        &self,
        search: &mut ChSearch,
        seeds: &[(NodeId, f64)],
        targets: &[NodeId],
    ) -> (Vec<f64>, u64) {
        self.batch_dists(search, &[seeds], targets)
    }

    /// Bucket-based many-to-many kernel: one backward upward sweep per
    /// *distinct* target, one forward upward sweep per source seed list,
    /// forward sweeps probing the targets' search spaces through a
    /// node-sorted bucket array. Returns the row-major
    /// `sources.len() × targets.len()` distance matrix plus the settled
    /// count (backward spaces are charged once, not per source).
    pub fn batch_dists(
        &self,
        search: &mut ChSearch,
        sources: &[&[(NodeId, f64)]],
        targets: &[NodeId],
    ) -> (Vec<f64>, u64) {
        let mut out = vec![INFINITY; sources.len() * targets.len()];
        if self.n == 0 || sources.is_empty() || targets.is_empty() {
            return (out, 0);
        }
        if gpssn_failpoint::failpoint!("ch::settle_exhaustion") {
            panic!("injected fault: ch::settle_exhaustion");
        }
        search.prepare(self.n);
        let mut settles: u64 = 0;

        // Deduplicate targets (two POIs often share an edge endpoint);
        // `tcol[j]` maps target j to its distinct-target column.
        search.distinct.clear();
        search.tcol.clear();
        for &t in targets {
            let slot = search.tslot[t as usize];
            if (slot as usize) < search.distinct.len() && search.distinct[slot as usize] == t {
                search.tcol.push(slot);
            } else {
                search.tslot[t as usize] = search.distinct.len() as u32;
                search.tcol.push(search.distinct.len() as u32);
                search.distinct.push(t);
            }
        }

        // Backward phase: one upward sweep per distinct target, its
        // search space persisted as `(vertex, target, dist)` buckets.
        search.bucket.clear();
        for e in 0..search.distinct.len() {
            let t = search.distinct[e];
            settles += self.upward_sweep(search, &[(t, 0.0)]);
            for &m in &search.settled {
                search.bucket.push((m, e as u32, search.dist[m as usize]));
            }
            search.reset_sweep();
        }
        // Sorted by vertex for probing; the order within a vertex does
        // not matter, since the probe takes a minimum.
        search.bucket.sort_unstable_by_key(|&(m, _, _)| m);

        // Forward phase: one upward sweep per source, probing buckets at
        // every settled vertex. The smallest meeting key per distinct
        // target is its exact distance.
        let cols = search.distinct.len();
        for (i, seeds) in sources.iter().enumerate() {
            settles += self.upward_sweep(search, seeds);
            search.best.clear();
            search.best.resize(cols, INFINITY);
            for &m in &search.settled {
                let df = search.dist[m as usize];
                for &(_, e, db) in bucket_range(&search.bucket, m) {
                    let key = df + db;
                    if key < search.best[e as usize] {
                        search.best[e as usize] = key;
                    }
                }
            }
            for (j, &c) in search.tcol.iter().enumerate() {
                out[i * targets.len() + j] = search.best[c as usize];
            }
            search.reset_sweep();
        }
        (out, settles)
    }

    /// Runs one upward Dijkstra sweep (forward and backward are the same
    /// search on an undirected hierarchy). Leaves `dist` and `settled`
    /// describing the sweep; returns the settle count.
    fn upward_sweep(&self, search: &mut ChSearch, seeds: &[(NodeId, f64)]) -> u64 {
        for &(s, d0) in seeds {
            debug_assert!(
                d0 >= 0.0 && snap(d0) == d0,
                "seed distances must be non-negative grid values"
            );
            if d0 < search.dist[s as usize] {
                if search.dist[s as usize] == INFINITY {
                    search.touched.push(s);
                }
                search.dist[s as usize] = d0;
                search.heap.push_or_decrease(s, d0);
            }
        }
        while let Some((v, d)) = search.heap.pop() {
            search.settled.push(v);
            let lo = self.up_offsets[v as usize] as usize;
            let hi = self.up_offsets[v as usize + 1] as usize;
            for arc in &self.up_arcs[lo..hi] {
                let nd = d + arc.weight;
                if nd < search.dist[arc.head as usize] {
                    if search.dist[arc.head as usize] == INFINITY {
                        search.touched.push(arc.head);
                    }
                    search.dist[arc.head as usize] = nd;
                    search.heap.push_or_decrease(arc.head, nd);
                }
            }
        }
        search.settled.len() as u64
    }

    /// Serializes the oracle as versioned plain text (rank + arena; the
    /// upward CSR is rebuilt on read). Written inside the road-index file
    /// by `gpssn-index`.
    pub fn write_text<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "ch {} {} {}",
            self.n,
            self.num_original,
            self.arena.len()
        )?;
        for r in &self.rank {
            writeln!(w, "{r}")?;
        }
        for arc in &self.arena {
            // `{:?}` prints the shortest decimal that round-trips f64.
            writeln!(w, "{} {} {:?}", arc.tail, arc.head, arc.weight)?;
        }
        Ok(())
    }

    /// Reads an oracle written by [`ChOracle::write_text`]. `lines`
    /// should be positioned on the `ch ...` header line.
    pub fn read_text<B: BufRead>(lines: &mut std::io::Lines<B>) -> io::Result<ChOracle> {
        let header = next_line(lines)?;
        let mut it = header.split_whitespace();
        if it.next() != Some("ch") {
            return Err(bad_data("expected `ch` header"));
        }
        let n: usize = parse_field(it.next())?;
        let num_original: usize = parse_field(it.next())?;
        let arena_len: usize = parse_field(it.next())?;
        if num_original > arena_len || arena_len > u32::MAX as usize {
            return Err(bad_data("implausible ch arena size"));
        }
        // Cap pre-allocation from untrusted counts; the vectors still
        // grow to the real size on demand.
        let mut rank = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            rank.push(parse_field(Some(next_line(lines)?.trim()))?);
        }
        let mut arena = Vec::with_capacity(arena_len.min(1 << 16));
        for _ in 0..arena_len {
            let line = next_line(lines)?;
            let mut it = line.split_whitespace();
            let tail: NodeId = parse_field(it.next())?;
            let head: NodeId = parse_field(it.next())?;
            let weight: f64 = parse_field(it.next())?;
            if (tail as usize) >= n || (head as usize) >= n {
                return Err(bad_data("ch arc endpoint out of range"));
            }
            if !(weight.is_finite() && weight >= 0.0 && snap(weight) == weight) {
                return Err(bad_data(
                    "ch arc weight must be a finite, non-negative grid value",
                ));
            }
            arena.push(ArenaArc { tail, head, weight });
        }
        let mut seen = vec![false; n];
        for &r in &rank {
            if (r as usize) >= n || std::mem::replace(&mut seen[r as usize], true) {
                return Err(bad_data("ch rank is not a permutation"));
            }
        }
        let (up_offsets, up_arcs) = build_up_csr(n, &rank, &arena);
        Ok(ChOracle {
            n,
            rank,
            up_offsets,
            up_arcs,
            arena,
            num_original,
        })
    }
}

/// Live-adjacency entry during contraction, oriented self -> `to`.
#[derive(Debug, Clone, Copy)]
struct AdjArc {
    to: NodeId,
    weight: f64,
}

/// Counters from one [`ChOracle::build_with_stats`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChBuildStats {
    /// Independent-set contraction rounds executed.
    pub rounds: u32,
    /// Shortcut arcs inserted.
    pub shortcuts: usize,
    /// Witness searches run (each resets its workspace's touched set).
    pub witness_resets: u64,
    /// Witness searches that recycled a warm workspace from a previous
    /// search instead of starting from fresh storage.
    pub witness_recycles: u64,
    /// Worker workspaces allocated (one per build thread).
    pub workspaces: u32,
    /// Wall-clock nanoseconds spent inside the data-parallel fan-out
    /// sections (priority simulation and candidate contraction), measured
    /// on the coordinating thread. At `threads = 1` this is the portion
    /// of the build that divides across workers; the remainder
    /// (selection, merge, CSR assembly) is inherently sequential.
    pub par_ns: u64,
}

/// Per-worker contraction state: a witness search plus neighbour scratch,
/// reused across every candidate (and round) the worker handles — no
/// per-candidate allocation churn.
#[derive(Debug)]
struct BuildWorkspace {
    witness: WitnessSearch,
    neighbors: Vec<AdjArc>,
}

impl BuildWorkspace {
    fn new(n: usize) -> Self {
        BuildWorkspace {
            witness: WitnessSearch::new(n),
            neighbors: Vec::new(),
        }
    }
}

/// One candidate's simulated contraction, computed against the pre-round
/// adjacency and applied later in deterministic merge order.
struct CandidateOutput {
    v: NodeId,
    /// Live (unranked) neighbours at simulation time.
    neighbors: Vec<AdjArc>,
    /// Shortcut pairs to insert: `(u_i arc, u_j arc)` out of `v`.
    shortcuts: Vec<(AdjArc, AdjArc)>,
}

/// Fans `items` out over the worker pool in contiguous chunks and returns
/// the per-item outputs **in input order** — the merge order (and hence
/// the hierarchy) is independent of the number of workers. Small batches
/// run inline on the first workspace.
// Audited expect: `join` only fails when a worker panicked, and
// propagating that panic is exactly the intended behavior.
#[allow(clippy::expect_used)]
fn fan_out<T, F>(pool: &mut [BuildWorkspace], items: &[NodeId], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut BuildWorkspace, NodeId) -> T + Sync,
{
    if pool.len() <= 1 || items.len() < PAR_BUILD_FLOOR {
        let ws = &mut pool[0];
        return items.iter().map(|&v| f(ws, v)).collect();
    }
    let chunk = items.len().div_ceil(pool.len());
    let f = &f;
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(pool.len());
        for (ws, chunk_items) in pool.iter_mut().zip(items.chunks(chunk)) {
            handles.push(
                scope.spawn(move || chunk_items.iter().map(|&v| f(ws, v)).collect::<Vec<T>>()),
            );
        }
        for h in handles {
            out.extend(h.join().expect("contraction worker panicked"));
        }
    });
    out
}

/// Simulates contracting `v` against the current adjacency: collects its
/// live neighbours and the shortcut pairs no witness search can refute.
/// Read-only on the shared state, so candidates of one round can run
/// concurrently.
fn contract_candidate(
    adj: &[Vec<AdjArc>],
    rank: &[u32],
    ws: &mut BuildWorkspace,
    v: NodeId,
) -> CandidateOutput {
    live_neighbors(adj, rank, v, &mut ws.neighbors);
    let mut shortcuts = Vec::new();
    for i in 0..ws.neighbors.len() {
        if i + 1 == ws.neighbors.len() {
            break; // no partners left
        }
        let ui = ws.neighbors[i];
        // One witness search from u_i covers every partner u_j.
        let limit = ws.neighbors[i + 1..]
            .iter()
            .map(|uj| ui.weight + uj.weight)
            .fold(0.0f64, f64::max);
        ws.witness.run(adj, rank, ui.to, v, limit);
        for &uj in &ws.neighbors[i + 1..] {
            let sum = ui.weight + uj.weight;
            if ws.witness.dist(uj.to) < sum {
                continue; // strictly shorter witness
            }
            shortcuts.push((ui, uj));
        }
    }
    CandidateOutput {
        v,
        neighbors: ws.neighbors.clone(),
        shortcuts,
    }
}

/// Reusable state for [`ChOracle`] queries: sweep arrays and the
/// persisted backward buckets. One per thread, like
/// [`crate::DijkstraWorkspace`].
#[derive(Debug, Default)]
pub struct ChSearch {
    dist: Vec<f64>,
    touched: Vec<NodeId>,
    settled: Vec<NodeId>,
    heap: IndexedMinHeap,
    /// Distinct-target dedup scratch (`tslot` is a lossy hint checked
    /// against `distinct`, so it never needs clearing).
    tslot: Vec<u32>,
    distinct: Vec<NodeId>,
    tcol: Vec<u32>,
    /// `(node, target index, backward dist)`, sorted by node for probing.
    bucket: Vec<(NodeId, u32, f64)>,
    best: Vec<f64>,
    /// Lifetime count of batches prepared by this workspace.
    resets: u64,
    /// Batches that reused already-sized storage (no growth needed).
    recycles: u64,
}

impl ChSearch {
    /// Creates an empty workspace; storage is sized on first use.
    pub fn new() -> Self {
        ChSearch::default()
    }

    fn prepare(&mut self, n: usize) {
        self.resets += 1;
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
            self.tslot.resize(n, 0);
            self.heap.grow(n);
        } else if n > 0 {
            self.recycles += 1;
        }
    }

    /// Lifetime number of batches this workspace prepared.
    #[inline]
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Lifetime number of batches that reused already-sized storage.
    #[inline]
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Restores `dist` to `INFINITY` at every vertex the latest sweep
    /// touched; clears the settled list.
    fn reset_sweep(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
        }
        self.touched.clear();
        self.settled.clear();
        self.heap.clear();
    }

    /// Restores the workspace to a clean state after a query aborted
    /// mid-batch (a panic unwound out of [`ChOracle::batch_dists`]).
    /// Unlike the incremental [`ChSearch::reset_sweep`], this wipes the
    /// full sweep arrays — O(n), but only run on the fault path — so a
    /// later batch on the same workspace stays bit-identical. Storage
    /// capacity and lifetime counters are retained.
    pub fn hard_reset(&mut self) {
        for d in &mut self.dist {
            *d = INFINITY;
        }
        self.touched.clear();
        self.settled.clear();
        self.heap.clear();
        self.distinct.clear();
        self.tcol.clear();
        self.bucket.clear();
        self.best.clear();
    }
}

/// Maps an f64 priority to a totally ordered `u64` (sign-flip trick), so
/// `(key_bits(p), vertex)` tuples order candidates deterministically.
fn key_bits(p: f64) -> u64 {
    let b = p.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Collects `v`'s live (unranked) neighbours, deduplicated per neighbour
/// keeping the minimum-weight parallel arc (first wins on exact ties, so
/// the choice is deterministic).
fn live_neighbors(adj: &[Vec<AdjArc>], rank: &[u32], v: NodeId, out: &mut Vec<AdjArc>) {
    out.clear();
    'arcs: for arc in &adj[v as usize] {
        if rank[arc.to as usize] != UNRANKED {
            continue;
        }
        for seen in out.iter_mut() {
            if seen.to == arc.to {
                if arc.weight < seen.weight {
                    *seen = *arc;
                }
                continue 'arcs;
            }
        }
        out.push(*arc);
    }
}

/// Simulates contracting `v`: counts the shortcuts the contraction would
/// insert and returns the standard priority
/// `2·(shortcuts − degree) + contracted neighbours`. Uses the worker's
/// neighbour scratch and witness search — no per-call allocation.
fn simulate_priority(
    adj: &[Vec<AdjArc>],
    rank: &[u32],
    deleted_neighbors: &[u32],
    ws: &mut BuildWorkspace,
    v: NodeId,
) -> f64 {
    live_neighbors(adj, rank, v, &mut ws.neighbors);
    let neighbors = &ws.neighbors;
    let witness = &mut ws.witness;
    let mut shortcuts: i64 = 0;
    for i in 0..neighbors.len() {
        let ui = neighbors[i];
        let limit = neighbors[i + 1..]
            .iter()
            .map(|uj| ui.weight + uj.weight)
            .fold(0.0f64, f64::max);
        if i + 1 < neighbors.len() {
            witness.run(adj, rank, ui.to, v, limit);
        }
        for uj in &neighbors[i + 1..] {
            let sum = ui.weight + uj.weight;
            // Count unless a strictly shorter witness exists (the same
            // test the contraction loop applies when inserting).
            if witness.dist(uj.to) >= sum {
                shortcuts += 1;
            }
        }
    }
    let edge_diff = shortcuts - neighbors.len() as i64;
    2.0 * edge_diff as f64 + deleted_neighbors[v as usize] as f64
}

/// A bounded Dijkstra over the live (unranked) part of the dynamic
/// adjacency, excluding one vertex — the witness search of CH
/// contraction. Truncation (settle cap, limit) is sound: it only misses
/// witnesses, which adds redundant shortcuts.
#[derive(Debug)]
struct WitnessSearch {
    dist: Vec<f64>,
    touched: Vec<NodeId>,
    heap: IndexedMinHeap,
    /// Lifetime count of searches run (each resets the touched set).
    resets: u64,
    /// Searches that recycled a warm workspace (a previous search had
    /// left touched state to clear) instead of fresh storage.
    recycles: u64,
}

impl WitnessSearch {
    fn new(n: usize) -> Self {
        WitnessSearch {
            dist: vec![INFINITY; n],
            touched: Vec::new(),
            heap: IndexedMinHeap::new(n),
            resets: 0,
            recycles: 0,
        }
    }

    /// Distance found by the latest run (`INFINITY` if unexplored).
    #[inline]
    fn dist(&self, v: NodeId) -> f64 {
        self.dist[v as usize]
    }

    /// Runs from `source`, skipping `excluded`, giving up beyond `limit`
    /// or [`WITNESS_SETTLE_CAP`] settles.
    fn run(
        &mut self,
        adj: &[Vec<AdjArc>],
        rank: &[u32],
        source: NodeId,
        excluded: NodeId,
        limit: f64,
    ) {
        self.resets += 1;
        if !self.touched.is_empty() {
            self.recycles += 1;
        }
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
        }
        self.touched.clear();
        self.heap.clear();
        self.dist[source as usize] = 0.0;
        self.touched.push(source);
        self.heap.push_or_decrease(source, 0.0);
        let mut settles = 0usize;
        while let Some((v, d)) = self.heap.pop() {
            if d > limit || settles >= WITNESS_SETTLE_CAP {
                break;
            }
            settles += 1;
            for arc in &adj[v as usize] {
                if arc.to == excluded || rank[arc.to as usize] != UNRANKED {
                    continue;
                }
                let nd = d + arc.weight;
                if nd < self.dist[arc.to as usize] && nd <= limit {
                    if self.dist[arc.to as usize] == INFINITY {
                        self.touched.push(arc.to);
                    }
                    self.dist[arc.to as usize] = nd;
                    self.heap.push_or_decrease(arc.to, nd);
                }
            }
        }
    }
}

/// Builds the upward CSR: every arena arc, oriented from its lower-ranked
/// to its higher-ranked endpoint (counting sort by tail — deterministic).
fn build_up_csr(n: usize, rank: &[u32], arena: &[ArenaArc]) -> (Vec<u32>, Vec<UpArc>) {
    let mut counts = vec![0u32; n + 1];
    let orient = |arc: &ArenaArc| -> (NodeId, NodeId) {
        if rank[arc.tail as usize] < rank[arc.head as usize] {
            (arc.tail, arc.head)
        } else {
            (arc.head, arc.tail)
        }
    };
    for arc in arena {
        counts[orient(arc).0 as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut arcs = vec![
        UpArc {
            head: 0,
            weight: 0.0
        };
        arena.len()
    ];
    let mut cursor = counts;
    for arc in arena {
        let (t, h) = orient(arc);
        let at = cursor[t as usize] as usize;
        cursor[t as usize] += 1;
        arcs[at] = UpArc {
            head: h,
            weight: arc.weight,
        };
    }
    (offsets, arcs)
}

/// The bucket slice of vertex `m`, by binary search over the node-sorted
/// bucket array.
fn bucket_range(bucket: &[(NodeId, u32, f64)], m: NodeId) -> &[(NodeId, u32, f64)] {
    let lo = bucket.partition_point(|&(v, _, _)| v < m);
    let hi = lo + bucket[lo..].partition_point(|&(v, _, _)| v == m);
    &bucket[lo..hi]
}

fn next_line<B: BufRead>(lines: &mut std::io::Lines<B>) -> io::Result<String> {
    lines
        .next()
        .ok_or_else(|| bad_data("unexpected end of ch section"))?
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>) -> io::Result<T> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("malformed ch field"))
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{dijkstra_all, dijkstra_targets};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: usize, extra: usize, zero_frac: f64) -> CsrGraph {
        let mut edges = Vec::new();
        let weight = |rng: &mut StdRng| {
            if rng.gen_bool(zero_frac) {
                0.0
            } else {
                rng.gen_range(0.1..10.0)
            }
        };
        for v in 1..n {
            let u = rng.gen_range(0..v);
            let w = weight(rng);
            edges.push((u as NodeId, v as NodeId, w));
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                let w = weight(rng);
                edges.push((u as NodeId, v as NodeId, w));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// Random graph with several disconnected components, so unreachable
    /// pairs occur.
    fn random_disconnected(rng: &mut StdRng, n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        let parts = 3.min(n);
        for v in parts..n {
            let u = rng.gen_range(0..v);
            if u % parts == v % parts {
                edges.push((u as NodeId, v as NodeId, rng.gen_range(0.1..10.0)));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    fn assert_bits_eq(got: f64, want: f64, ctx: &str) {
        assert!(
            got.to_bits() == want.to_bits(),
            "{ctx}: ch={got:?} ({:#x}) dijkstra={want:?} ({:#x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn tiny_path_graph() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let (d, settles) = ch.dists(&mut s, &[(0, 0.0)], &[0, 1, 2, 3]);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 6.0]);
        assert!(settles > 0);
    }

    #[test]
    fn zero_weight_and_parallel_edges() {
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1, 0.0),
                (0, 1, 1.0),
                (1, 2, 0.0),
                (2, 3, 5.0),
                (0, 3, 5.0),
            ],
        );
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let targets = [0, 1, 2, 3];
        let want = dijkstra_targets(&g, &[(0, 0.25)], &targets);
        let (got, _) = ch.dists(&mut s, &[(0, 0.25)], &targets);
        for (j, &t) in targets.iter().enumerate() {
            assert_bits_eq(got[j], want[t as usize], &format!("target {t}"));
        }
    }

    #[test]
    fn unreachable_targets_are_infinity() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let (d, _) = ch.dists(&mut s, &[(0, 0.5)], &[1, 2, 3]);
        assert_eq!(d[0], 1.5);
        assert_eq!(d[1], INFINITY);
        assert_eq!(d[2], INFINITY);
    }

    #[test]
    fn empty_graph_and_empty_queries() {
        let g = CsrGraph::from_edges(0, &[]);
        let ch = ChOracle::build(&g);
        let mut s = ChSearch::new();
        let (d, settles) = ch.batch_dists(&mut s, &[], &[]);
        assert!(d.is_empty());
        assert_eq!(settles, 0);
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_graph(&mut rng, 400, 500, 0.05);
        let seq = ChOracle::build_with_threads(&g, 1);
        let mut seq_bytes = Vec::new();
        seq.write_text(&mut seq_bytes).unwrap();
        for threads in [2usize, 4, 8, 0] {
            let par = ChOracle::build_with_threads(&g, threads);
            assert_eq!(seq.rank, par.rank, "rank differs at {threads} threads");
            assert_eq!(seq.arena.len(), par.arena.len());
            for (a, b) in seq.arena.iter().zip(par.arena.iter()) {
                assert_eq!(a.tail, b.tail);
                assert_eq!(a.head, b.head);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
            // The full serialized text (rank + arena) must match too.
            let mut par_bytes = Vec::new();
            par.write_text(&mut par_bytes).unwrap();
            assert_eq!(
                seq_bytes, par_bytes,
                "serialized ch differs at {threads} threads"
            );
        }
    }

    #[test]
    fn build_stats_count_rounds_and_witness_reuse() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = random_graph(&mut rng, 200, 260, 0.05);
        let (ch, stats) = ChOracle::build_with_stats(&g, 2);
        assert!(stats.rounds >= 1, "at least one contraction round");
        assert_eq!(stats.shortcuts, ch.num_shortcuts());
        assert_eq!(stats.workspaces, 2);
        assert!(stats.witness_resets > 0);
        // Workspaces are reused across candidates: all but the first
        // search per workspace recycles warm storage.
        assert!(stats.witness_recycles >= stats.witness_resets - u64::from(stats.workspaces));
    }

    #[test]
    fn text_round_trip_preserves_answers() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_graph(&mut rng, 60, 80, 0.1);
        let ch = ChOracle::build(&g);
        let mut buf = Vec::new();
        ch.write_text(&mut buf).unwrap();
        let mut lines = std::io::BufReader::new(&buf[..]).lines();
        let back = ChOracle::read_text(&mut lines).unwrap();
        let mut s = ChSearch::new();
        let targets: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        for src in 0..6 {
            let (a, _) = ch.dists(&mut s, &[(src, 0.0)], &targets);
            let (b, _) = back.dists(&mut s, &[(src, 0.0)], &targets);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn read_text_rejects_garbage() {
        for text in [
            "",
            "notch 1 0 0\n",
            "ch 2 1 1\n0\n1\n0 5 1.0\n",
            "ch 2 1 1\n0\n0\n0 1 1.0\n",
            "ch 2 1 1\n0\n1\n0 1 -1.0\n",
            "ch 2 1 1\n0\n1\n0 1 0.1\n", // off the grid
        ] {
            let mut lines = std::io::BufReader::new(text.as_bytes()).lines();
            assert!(
                ChOracle::read_text(&mut lines).is_err(),
                "accepted {text:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// CH answers are bit-identical to Dijkstra on random connected
        /// graphs with zero-weight and parallel edges, including seeded
        /// (on-edge style) multi-source queries with grid-valued seeds.
        #[test]
        fn matches_dijkstra_bitwise(seed in 0u64..2000, n in 2usize..40, extra in 0usize..60) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, extra, 0.08);
            let ch = ChOracle::build_with_threads(&g, if seed % 2 == 0 { 1 } else { 3 });
            let mut s = ChSearch::new();
            let targets: Vec<NodeId> = (0..n as NodeId).collect();
            for _ in 0..3 {
                let s1 = rng.gen_range(0..n) as NodeId;
                let s2 = rng.gen_range(0..n) as NodeId;
                let d1 = snap(rng.gen_range(0.0..4.0));
                let d2 = snap(rng.gen_range(0.0..4.0));
                let seeds = [(s1, d1), (s2, d2)];
                let want = dijkstra_all(&g, &seeds);
                let (got, _) = ch.dists(&mut s, &seeds, &targets);
                for v in 0..n {
                    prop_assert_eq!(
                        got[v].to_bits(), want[v].to_bits(),
                        "seed {} n {} v {}: ch={:?} dijkstra={:?}", seed, n, v, got[v], want[v]
                    );
                }
            }
        }

        /// The many-to-many kernel agrees with per-source Dijkstra runs
        /// on graphs with unreachable pairs.
        #[test]
        fn batch_matches_dijkstra_on_disconnected(seed in 0u64..1000, n in 4usize..36) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_disconnected(&mut rng, n);
            let ch = ChOracle::build(&g);
            let mut s = ChSearch::new();
            // Duplicate targets exercise the dedup path.
            let mut targets: Vec<NodeId> = (0..n as NodeId).collect();
            targets.push(0);
            targets.push((n / 2) as NodeId);
            let seed_lists: Vec<Vec<(NodeId, f64)>> = (0..3)
                .map(|_| vec![(rng.gen_range(0..n) as NodeId, snap(rng.gen_range(0.0..2.0)))])
                .collect();
            let refs: Vec<&[(NodeId, f64)]> = seed_lists.iter().map(|v| v.as_slice()).collect();
            let (got, _) = ch.batch_dists(&mut s, &refs, &targets);
            for (i, seeds) in seed_lists.iter().enumerate() {
                let want = dijkstra_targets(&g, seeds, &targets);
                for (j, &t) in targets.iter().enumerate() {
                    prop_assert_eq!(
                        got[i * targets.len() + j].to_bits(),
                        want[t as usize].to_bits(),
                        "seed {} source {} target {}", seed, i, t
                    );
                }
            }
        }
    }
}
