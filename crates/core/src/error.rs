//! Typed errors, resource budgets, and completion reporting for
//! fault-tolerant query serving.
//!
//! The engine's `try_*` entry points return [`GpSsnError`] instead of
//! panicking, accept a [`QueryBudget`] bounding wall-clock time and the
//! three dominant work units (best-first heap pops, connected-subset
//! enumerations, Dijkstra settles), and report how the answer terminated
//! via [`Completion`]: a tripped budget degrades into an *anytime* answer
//! — the best verified `(S, R)` pair so far plus an optimality-gap bound
//! derived from the smallest outstanding `lb_maxdist` (Eq. 17), which
//! lower-bounds every answer the truncated search did not examine.
//!
//! [`BudgetState`] is the per-query metering object threaded through the
//! traversal, refinement, sampling, and baseline code paths. Checks are
//! cheap: saturating counter bumps, with the clock consulted only every
//! [`DEADLINE_CHECK_PERIOD`] events.

use gpssn_social::UserId;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Everything that can go wrong while serving a GP-SSN query.
#[derive(Debug, Clone, PartialEq)]
pub enum GpSsnError {
    /// The query parameters fail [`crate::GpSsnQuery::validate`].
    InvalidQuery(String),
    /// The query radius falls outside the `[r_min, r_max]` range the road
    /// index was built for.
    RadiusOutOfIndexRange {
        /// The requested radius.
        radius: f64,
        /// Smallest radius the index supports.
        r_min: f64,
        /// Largest radius the index supports.
        r_max: f64,
    },
    /// The query user id is not a vertex of the social network.
    UnknownUser {
        /// The requested user id.
        user: UserId,
        /// Number of users in the network.
        num_users: usize,
    },
    /// No answer can exist, with a proof sketch (e.g. `τ` exceeds the
    /// user population, or the query user has no friends and `τ ≥ 2`).
    Infeasible {
        /// Why no feasible answer exists.
        reason: String,
    },
    /// The [`QueryBudget::deadline`] elapsed before the search finished
    /// and no verified answer was available to degrade to.
    DeadlineExceeded,
    /// A work-unit budget ran out before the search finished and no
    /// verified answer was available to degrade to.
    BudgetExhausted {
        /// Which budget tripped (`"heap pops"`, `"groups enumerated"`,
        /// `"dijkstra settles"`).
        resource: &'static str,
    },
    /// The serving layer's bounded submission queue was full and the
    /// overload policy sheds instead of blocking; the request never
    /// reached the engine. Only produced by [`crate::serve`].
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The request's deadline had already expired before any engine work
    /// was spent on it (at submission, or after waiting in the serving
    /// queue), so admission control shed it. Distinct from
    /// [`GpSsnError::DeadlineExceeded`], which reports a deadline that
    /// tripped *mid-query*. Only produced by [`crate::serve`].
    DeadlineExpired,
    /// A persisted index failed its per-section checksum (or parse) on
    /// load. `section` names the corrupt section (`"cfg"`, `"pivots"`,
    /// `"pois"`, `"ch"`); a corrupt `ch` section is recoverable by
    /// rebuilding the oracle from the road graph (see
    /// `gpssn_index::load_road_index_healing`).
    IndexCorrupt {
        /// Which serialized section failed verification.
        section: String,
    },
    /// A query panicked inside a batch; the payload message is preserved.
    /// Only produced by [`crate::GpSsnEngine::try_query_batch`], which
    /// isolates the panic to the offending slot.
    Internal(String),
}

impl std::fmt::Display for GpSsnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpSsnError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            GpSsnError::RadiusOutOfIndexRange {
                radius,
                r_min,
                r_max,
            } => {
                write!(
                    f,
                    "radius {radius} outside the index's [{r_min}, {r_max}] range"
                )
            }
            GpSsnError::UnknownUser { user, num_users } => {
                write!(
                    f,
                    "unknown user {user} (social network has {num_users} users)"
                )
            }
            GpSsnError::Infeasible { reason } => write!(f, "query is infeasible: {reason}"),
            GpSsnError::DeadlineExceeded => write!(f, "deadline exceeded"),
            GpSsnError::BudgetExhausted { resource } => {
                write!(f, "resource budget exhausted: {resource}")
            }
            GpSsnError::Overloaded { depth, capacity } => {
                write!(
                    f,
                    "service overloaded: submission queue at depth {depth} of capacity {capacity}"
                )
            }
            GpSsnError::DeadlineExpired => {
                write!(f, "deadline expired before the query started")
            }
            GpSsnError::IndexCorrupt { section } => {
                write!(f, "index corrupt: section {section:?} failed verification")
            }
            GpSsnError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for GpSsnError {}

/// How a query terminated.
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// The search ran to completion: the answer (or its absence) is the
    /// exact optimum.
    Exact,
    /// A budget tripped mid-search. The reported answer is the best
    /// verified one and the true optimum `opt` satisfies
    /// `answer.maxdist - gap <= opt <= answer.maxdist`. For top-k queries
    /// with fewer than `k` answers found, the gap is `f64::INFINITY`.
    TruncatedWithGap(f64),
    /// The exact pipeline could not produce an answer (fault or budget
    /// trip with nothing verified) and the degradation ladder served
    /// one from the sampling estimator instead (the paper's §6.3
    /// baseline device). The answer satisfies every query constraint —
    /// it passes `check_answer` — but its `maxdist` is only an upper
    /// bound on the optimum, with no gap estimate. Only produced when
    /// [`crate::DegradationPolicy::Ladder`] is selected.
    DegradedSampling,
    /// A budget tripped before any answer was verified; the error names
    /// the tripped resource.
    Failed(GpSsnError),
}

impl Completion {
    /// Whether the result is the exact optimum.
    pub fn is_exact(&self) -> bool {
        matches!(self, Completion::Exact)
    }

    /// The degradation-ladder rung this completion was served from, as
    /// a stable label: `"exact"`, `"truncated"`, `"sampling"`, or
    /// `"failed"` (used for exit codes and the
    /// `gpssn_degraded_rung_total` counter).
    pub fn rung(&self) -> &'static str {
        match self {
            Completion::Exact => "exact",
            Completion::TruncatedWithGap(_) => "truncated",
            Completion::DegradedSampling => "sampling",
            Completion::Failed(_) => "failed",
        }
    }
}

/// Resource limits for one query. The default is unlimited (every field
/// `None`), which makes the budgeted code paths behave exactly like the
/// unbudgeted ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryBudget {
    /// Wall-clock deadline, measured from query start.
    pub deadline: Option<Duration>,
    /// Cap on best-first heap pops (road-index traversal, Eq. 17 order).
    pub max_heap_pops: Option<u64>,
    /// Cap on connected user subsets enumerated (refinement, sampling,
    /// feasibility probes, baseline).
    pub max_groups_enumerated: Option<u64>,
    /// Cap on vertices settled by refinement-time Dijkstra runs.
    pub max_dijkstra_settles: Option<u64>,
}

impl QueryBudget {
    /// No limits at all (same as `Default`).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        QueryBudget {
            deadline: Some(deadline),
            ..Default::default()
        }
    }

    /// Whether every limit is absent.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_heap_pops.is_none()
            && self.max_groups_enumerated.is_none()
            && self.max_dijkstra_settles.is_none()
    }
}

/// Which budget tripped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The wall-clock deadline elapsed.
    Deadline,
    /// [`QueryBudget::max_heap_pops`] ran out.
    HeapPops,
    /// [`QueryBudget::max_groups_enumerated`] ran out.
    Groups,
    /// [`QueryBudget::max_dijkstra_settles`] ran out.
    DijkstraSettles,
}

impl From<Trip> for GpSsnError {
    fn from(t: Trip) -> GpSsnError {
        match t {
            Trip::Deadline => GpSsnError::DeadlineExceeded,
            Trip::HeapPops => GpSsnError::BudgetExhausted {
                resource: "heap pops",
            },
            Trip::Groups => GpSsnError::BudgetExhausted {
                resource: "groups enumerated",
            },
            Trip::DijkstraSettles => GpSsnError::BudgetExhausted {
                resource: "dijkstra settles",
            },
        }
    }
}

/// The clock is consulted once per this many counted events (and once per
/// chunky operation), keeping the common-case budget check branch-and-add
/// cheap.
pub const DEADLINE_CHECK_PERIOD: u64 = 64;

/// Per-query budget metering. Cheap to consult; once any limit trips the
/// state is sticky — every later check reports the same [`Trip`] so the
/// whole pipeline unwinds cooperatively.
///
/// Counters are relaxed atomics, so every stage of the query charges the
/// one meter through `&self` (and the meter stays `Sync`); one instance
/// serves exactly one query, and a budget of `N` settles admits `N`
/// settles across all of that query's stages.
#[derive(Debug)]
pub struct BudgetState {
    deadline_at: Option<Instant>,
    max_pops: u64,
    max_groups: u64,
    max_settles: u64,
    pops: AtomicU64,
    groups: AtomicU64,
    settles: AtomicU64,
    /// `0` = not tripped; otherwise `1 + Trip discriminant` of the first
    /// trip (sticky via compare-exchange).
    tripped: AtomicU8,
    /// Cross-query distance-cache hit/miss tallies for this query
    /// (ball cache, then exact `dist_RN` cache).
    ball_hits: AtomicU64,
    ball_misses: AtomicU64,
    dist_hits: AtomicU64,
    dist_misses: AtomicU64,
    /// Contraction-hierarchy oracle usage: batches run and vertices
    /// settled by CH sweeps (a breakout of `settles` — CH work charges
    /// the same settle budget as plain Dijkstra).
    ch_batches: AtomicU64,
    ch_settles: AtomicU64,
    /// Plain-Dijkstra batches (the non-CH complement of `ch_batches`).
    dijkstra_batches: AtomicU64,
    /// Workspace telemetry folded in by the center loop: runs
    /// prepared, runs that reused already-sized storage, and CH near-tie
    /// path unpacks.
    ws_resets: AtomicU64,
    heap_recycles: AtomicU64,
    ch_unpacks: AtomicU64,
    /// Faults that cost the query verified work (a refinement panic
    /// caught and absorbed): the center involved is unresolved,
    /// so a nonzero count disqualifies the `Exact` completion even if
    /// no budget tripped.
    faults: AtomicU64,
    /// CH batches that panicked and were re-served from the Dijkstra
    /// path. Informational only — the fallback row is bit-identical,
    /// so these do *not* degrade the completion.
    ch_faults: AtomicU64,
}

const TRIP_NONE: u8 = 0;

fn trip_encode(t: Trip) -> u8 {
    match t {
        Trip::Deadline => 1,
        Trip::HeapPops => 2,
        Trip::Groups => 3,
        Trip::DijkstraSettles => 4,
    }
}

fn trip_decode(v: u8) -> Option<Trip> {
    match v {
        TRIP_NONE => None,
        1 => Some(Trip::Deadline),
        2 => Some(Trip::HeapPops),
        3 => Some(Trip::Groups),
        _ => Some(Trip::DijkstraSettles),
    }
}

impl BudgetState {
    /// Starts metering `budget` from now.
    pub fn new(budget: &QueryBudget) -> Self {
        BudgetState {
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            max_pops: budget.max_heap_pops.unwrap_or(u64::MAX),
            max_groups: budget.max_groups_enumerated.unwrap_or(u64::MAX),
            max_settles: budget.max_dijkstra_settles.unwrap_or(u64::MAX),
            pops: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            settles: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
            ball_hits: AtomicU64::new(0),
            ball_misses: AtomicU64::new(0),
            dist_hits: AtomicU64::new(0),
            dist_misses: AtomicU64::new(0),
            ch_batches: AtomicU64::new(0),
            ch_settles: AtomicU64::new(0),
            dijkstra_batches: AtomicU64::new(0),
            ws_resets: AtomicU64::new(0),
            heap_recycles: AtomicU64::new(0),
            ch_unpacks: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            ch_faults: AtomicU64::new(0),
        }
    }

    /// A meter that never trips (counters still accumulate).
    pub fn unlimited() -> Self {
        BudgetState::new(&QueryBudget::unlimited())
    }

    /// Records one best-first heap pop; returns the trip if any budget is
    /// now (or was already) exhausted. A budget of `N` admits exactly `N`
    /// pops: the `N+1`-th attempt trips *without* being counted, so the
    /// reported metric never exceeds the budget.
    #[inline]
    pub fn note_pop(&self) -> Option<Trip> {
        self.note_counted(&self.pops, self.max_pops, Trip::HeapPops)
    }

    /// Records one enumerated connected subset; returns the trip if any
    /// budget is now (or was already) exhausted. As with [`Self::note_pop`],
    /// the tripping attempt itself is not counted.
    #[inline]
    pub fn note_group(&self) -> Option<Trip> {
        self.note_counted(&self.groups, self.max_groups, Trip::Groups)
    }

    #[inline]
    fn note_counted(&self, counter: &AtomicU64, max: u64, kind: Trip) -> Option<Trip> {
        if let Some(t) = self.trip() {
            return Some(t);
        }
        let n = counter.fetch_add(1, Ordering::Relaxed);
        if n >= max {
            // Uncount the tripping attempt so the reported metric never
            // exceeds the budget.
            counter.fetch_sub(1, Ordering::Relaxed);
            return self.trip_now(kind);
        }
        if (n + 1).is_multiple_of(DEADLINE_CHECK_PERIOD) {
            return self.check_deadline();
        }
        None
    }

    /// Charges `n` Dijkstra-settled vertices; returns the trip if any
    /// budget is now (or was already) exhausted. Dijkstra runs are chunky,
    /// so the deadline is consulted on every call.
    #[inline]
    pub fn add_settles(&self, n: u64) -> Option<Trip> {
        if let Some(t) = self.trip() {
            return Some(t);
        }
        let total = self
            .settles
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        if total > self.max_settles {
            return self.trip_now(Trip::DijkstraSettles);
        }
        self.check_deadline()
    }

    /// Records a cross-query distance-cache lookup for a road-network
    /// ball (`hit = true` when served from the cache).
    #[inline]
    pub fn note_ball_cache(&self, hit: bool) {
        let c = if hit {
            &self.ball_hits
        } else {
            &self.ball_misses
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` cross-query distance-cache lookups for exact
    /// `dist_RN(u, o)` values (`hit = true` when served from the cache).
    #[inline]
    pub fn note_dist_cache(&self, hit: bool, n: u64) {
        let c = if hit {
            &self.dist_hits
        } else {
            &self.dist_misses
        };
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one contraction-hierarchy oracle batch that settled `n`
    /// vertices across its sweeps. Pure bookkeeping for
    /// [`Self::ch_tallies`]; the settles themselves must still be
    /// charged through [`Self::add_settles`] so CH work counts against
    /// the same budget as plain Dijkstra.
    #[inline]
    pub fn note_ch_batch(&self, n: u64) {
        self.ch_batches.fetch_add(1, Ordering::Relaxed);
        self.ch_settles.fetch_add(n, Ordering::Relaxed);
    }

    /// `(batches, settles)` recorded so far against the CH oracle.
    pub fn ch_tallies(&self) -> (u64, u64) {
        (
            self.ch_batches.load(Ordering::Relaxed),
            self.ch_settles.load(Ordering::Relaxed),
        )
    }

    /// Records one multi-target batch served by plain Dijkstra (the
    /// complement of [`Self::note_ch_batch`]; its settles are charged
    /// through [`Self::add_settles`] like everything else).
    #[inline]
    pub fn note_dijkstra_batch(&self) {
        self.dijkstra_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-Dijkstra batches recorded so far.
    pub fn dijkstra_batches(&self) -> u64 {
        self.dijkstra_batches.load(Ordering::Relaxed)
    }

    /// Folds workspace lifetime telemetry into the meter: `resets` runs
    /// prepared, `recycles` runs that reused already-sized storage, and
    /// `unpacks` CH near-tie path unpacks. Called once per workspace at
    /// the end of each refinement scope, not per run.
    pub fn note_workspace(&self, resets: u64, recycles: u64, unpacks: u64) {
        self.ws_resets.fetch_add(resets, Ordering::Relaxed);
        self.heap_recycles.fetch_add(recycles, Ordering::Relaxed);
        self.ch_unpacks.fetch_add(unpacks, Ordering::Relaxed);
    }

    /// `(ws_resets, heap_recycles, ch_unpacks)` folded in so far.
    pub fn workspace_tallies(&self) -> (u64, u64, u64) {
        (
            self.ws_resets.load(Ordering::Relaxed),
            self.heap_recycles.load(Ordering::Relaxed),
            self.ch_unpacks.load(Ordering::Relaxed),
        )
    }

    /// Records a fault that cost this query verified work — a caught
    /// refinement panic or an errored center. See the `faults` field:
    /// any nonzero count keeps the completion from claiming `Exact`.
    #[inline]
    pub fn note_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Exactness-affecting faults recorded so far.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Records a CH batch panic absorbed by the bit-identical Dijkstra
    /// fallback (informational; does not affect the completion).
    #[inline]
    pub fn note_ch_fault(&self) {
        self.ch_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Absorbed CH faults recorded so far.
    pub fn ch_faults(&self) -> u64 {
        self.ch_faults.load(Ordering::Relaxed)
    }

    /// Re-checks the sticky trip state and the deadline without charging
    /// any work (used between pipeline stages).
    #[inline]
    pub fn check(&self) -> Option<Trip> {
        if let Some(t) = self.trip() {
            return Some(t);
        }
        self.check_deadline()
    }

    /// Whether any budget has tripped.
    pub fn is_tripped(&self) -> bool {
        self.trip().is_some()
    }

    /// The first trip, if any.
    pub fn trip(&self) -> Option<Trip> {
        trip_decode(self.tripped.load(Ordering::Relaxed))
    }

    /// Heap pops recorded so far.
    pub fn pops(&self) -> u64 {
        self.pops.load(Ordering::Relaxed)
    }

    /// Connected subsets recorded so far.
    pub fn groups(&self) -> u64 {
        self.groups.load(Ordering::Relaxed)
    }

    /// Dijkstra-settled vertices recorded so far.
    pub fn settles(&self) -> u64 {
        self.settles.load(Ordering::Relaxed)
    }

    /// `(ball hits, ball misses, dist hits, dist misses)` recorded so far
    /// against the cross-query distance cache.
    pub fn cache_tallies(&self) -> (u64, u64, u64, u64) {
        (
            self.ball_hits.load(Ordering::Relaxed),
            self.ball_misses.load(Ordering::Relaxed),
            self.dist_hits.load(Ordering::Relaxed),
            self.dist_misses.load(Ordering::Relaxed),
        )
    }

    #[inline]
    fn check_deadline(&self) -> Option<Trip> {
        match self.deadline_at {
            Some(at) if Instant::now() >= at => self.trip_now(Trip::Deadline),
            _ => None,
        }
    }

    fn trip_now(&self, t: Trip) -> Option<Trip> {
        // First trip wins; later (possibly different) trips keep
        // reporting the original cause.
        match self.tripped.compare_exchange(
            TRIP_NONE,
            trip_encode(t),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => Some(t),
            Err(prev) => trip_decode(prev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = BudgetState::unlimited();
        for _ in 0..10_000 {
            assert_eq!(b.note_pop(), None);
            assert_eq!(b.note_group(), None);
        }
        assert_eq!(b.add_settles(1 << 40), None);
        assert!(!b.is_tripped());
        assert_eq!(b.pops(), 10_000);
        assert_eq!(b.groups(), 10_000);
    }

    #[test]
    fn pop_budget_trips_and_sticks() {
        let b = BudgetState::new(&QueryBudget {
            max_heap_pops: Some(3),
            ..Default::default()
        });
        assert_eq!(b.note_pop(), None);
        assert_eq!(b.note_pop(), None);
        assert_eq!(b.note_pop(), None);
        assert_eq!(b.note_pop(), Some(Trip::HeapPops));
        // Sticky: every later check reports the same trip.
        assert_eq!(b.note_group(), Some(Trip::HeapPops));
        assert_eq!(b.add_settles(1), Some(Trip::HeapPops));
        assert_eq!(b.check(), Some(Trip::HeapPops));
        // The tripping attempt is never counted: metrics stay <= budget.
        assert_eq!(b.pops(), 3);
    }

    #[test]
    fn group_and_settle_budgets_trip() {
        let b = BudgetState::new(&QueryBudget {
            max_groups_enumerated: Some(2),
            ..Default::default()
        });
        assert_eq!(b.note_group(), None);
        assert_eq!(b.note_group(), None);
        assert_eq!(b.note_group(), Some(Trip::Groups));

        let b = BudgetState::new(&QueryBudget {
            max_dijkstra_settles: Some(10),
            ..Default::default()
        });
        assert_eq!(b.add_settles(10), None);
        assert_eq!(b.add_settles(1), Some(Trip::DijkstraSettles));
    }

    #[test]
    fn zero_deadline_trips_on_first_period() {
        let b = BudgetState::new(&QueryBudget::with_deadline(Duration::ZERO));
        // The deadline is only consulted every DEADLINE_CHECK_PERIOD pops.
        let mut tripped = false;
        for _ in 0..DEADLINE_CHECK_PERIOD {
            if b.note_pop().is_some() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert_eq!(b.trip(), Some(Trip::Deadline));
        // check() consults the clock immediately.
        let b2 = BudgetState::new(&QueryBudget::with_deadline(Duration::ZERO));
        assert_eq!(b2.check(), Some(Trip::Deadline));
    }

    #[test]
    fn errors_display_one_line() {
        let cases: Vec<GpSsnError> = vec![
            GpSsnError::InvalidQuery("tau must be at least 1".into()),
            GpSsnError::RadiusOutOfIndexRange {
                radius: 9.0,
                r_min: 0.5,
                r_max: 4.0,
            },
            GpSsnError::UnknownUser {
                user: 7,
                num_users: 3,
            },
            GpSsnError::Infeasible {
                reason: "tau exceeds population".into(),
            },
            GpSsnError::DeadlineExceeded,
            GpSsnError::Overloaded {
                depth: 128,
                capacity: 128,
            },
            GpSsnError::DeadlineExpired,
            Trip::HeapPops.into(),
            Trip::Groups.into(),
            Trip::DijkstraSettles.into(),
            GpSsnError::IndexCorrupt {
                section: "ch".into(),
            },
            GpSsnError::Internal("boom".into()),
        ];
        for e in cases {
            let line = e.to_string();
            assert!(!line.is_empty() && !line.contains('\n'), "{line:?}");
        }
    }

    #[test]
    fn budget_constructors() {
        assert!(QueryBudget::unlimited().is_unlimited());
        let d = QueryBudget::with_deadline(Duration::from_millis(5));
        assert!(!d.is_unlimited());
        assert_eq!(d.max_heap_pops, None);
    }
}
