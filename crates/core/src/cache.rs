//! Cross-query distance cache shared by every query an engine serves.
//!
//! Verifying a center recomputes two expensive artifacts that depend
//! only on the immutable network, never on the query's social
//! parameters: the road-network ball `⊙(o_i, r)` (a function of the
//! center POI and the radius) and exact `dist_RN(u, o)` values (a
//! function of a user's home and a POI position). Across a batch of
//! queries — and even within one query, when several centers share ball
//! members — the same pairs recur constantly. This module caches both,
//! keyed so that a hit returns the *bit-identical* value the uncached
//! computation would have produced:
//!
//! * balls are keyed by `(center, radius.to_bits())` — exact radius,
//!   no bucketing slack, so the cached member list is exactly what
//!   [`gpssn_road::PoiSet::network_ball`] returns;
//! * distances are keyed by `(user, poi)`. Road lengths are grid values
//!   (`gpssn_graph::GRID_BITS`), so a shortest path sums to the same
//!   bits whether the search starts at the user's home or at the POI: a
//!   value a row stored serves a column, and the other way round.
//!
//! The cache is sharded (one mutex per shard) so batch and serve
//! workers answering queries on one engine do not serialize on a single
//! lock, and each shard is capacity-bounded with FIFO eviction — an
//! evicted entry is simply recomputed, so eviction can never change
//! results. A shard whose mutex was poisoned by a panicking query
//! recovers the inner value ([`std::sync::Mutex::into_inner`]
//! semantics): the map is either intact or mid-insert of a single
//! entry, and every stored value is immutable once present, so the
//! worst case is one lost insert — never a wrong distance.

use gpssn_road::PoiId;
use gpssn_social::UserId;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Capacity configuration for [`DistanceCache`].
#[derive(Debug, Clone)]
pub struct DistanceCacheConfig {
    /// Total ball entries retained (FIFO per shard). `0` disables ball
    /// caching.
    pub ball_capacity: usize,
    /// Total `dist_RN` entries retained (FIFO per shard). `0` disables
    /// distance caching.
    pub dist_capacity: usize,
    /// Number of independently locked shards per map.
    pub shards: usize,
}

impl Default for DistanceCacheConfig {
    fn default() -> Self {
        DistanceCacheConfig {
            ball_capacity: 4096,
            dist_capacity: 1 << 17,
            shards: 8,
        }
    }
}

type BallKey = (PoiId, u64);
/// A cached ball row: the `(poi, dist_RN)` pairs inside `⊙(center, r)`,
/// shared by `Arc` so hits never copy.
type BallRow = Arc<Vec<(PoiId, f64)>>;
type DistKey = (UserId, PoiId);

/// One FIFO-bounded map. Insertion order is the eviction order;
/// re-inserting an existing key refreshes the value without re-queueing.
struct Shard<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
    /// Lifetime entries displaced by the capacity bound.
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            evictions: 0,
        }
    }

    fn get(&self, k: &K) -> Option<V> {
        self.map.get(k).cloned()
    }

    fn insert(&mut self, k: K, v: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(k.clone(), v).is_none() {
            self.order.push_back(k);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                    self.evictions += 1;
                }
            }
        }
    }
}

/// Lifetime counters of one [`DistanceCache`] (never reset). They use
/// the per-query definition of [`crate::CacheStats`], so they equal the
/// sum of every served query's counters: one ball lookup per
/// [`DistanceCache::get_ball`] probe, and one `dist_RN` lookup per value
/// a distance row or column needed — all hits when the whole run was
/// resident, all misses when it fell back to a batch. All sums saturate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLifetimeStats {
    /// Ball lookups served from the cache.
    pub ball_hits: u64,
    /// Ball lookups that missed.
    pub ball_misses: u64,
    /// Ball entries displaced by the capacity bound.
    pub ball_evictions: u64,
    /// `dist_RN` values served from the cache.
    pub dist_hits: u64,
    /// `dist_RN` values recomputed because their row or column missed.
    pub dist_misses: u64,
    /// `dist_RN` entries displaced by the capacity bound.
    pub dist_evictions: u64,
}

impl CacheLifetimeStats {
    /// Lifetime hit fraction over both maps, `0.0` before any lookup
    /// (saturating arithmetic — see [`crate::CacheStats::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.ball_hits.saturating_add(self.dist_hits);
        let total = hits
            .saturating_add(self.ball_misses)
            .saturating_add(self.dist_misses);
        hits as f64 / total.max(1) as f64
    }
}

/// Resident entries and capacity of one shard, for occupancy gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Entries currently resident.
    pub entries: usize,
    /// FIFO capacity of this shard.
    pub capacity: usize,
}

/// Sharded, capacity-bounded cache of road-network balls and exact
/// `dist_RN` values, shared across queries. See the module docs for the
/// exactness argument.
pub struct DistanceCache {
    balls: Vec<Mutex<Shard<BallKey, BallRow>>>,
    dists: Vec<Mutex<Shard<DistKey, f64>>>,
    /// Lifetime hit/miss tallies (evictions live inside the shards).
    ball_hits: AtomicU64,
    ball_misses: AtomicU64,
    dist_hits: AtomicU64,
    dist_misses: AtomicU64,
}

/// Locks a shard, recovering from poisoning (see module docs).
fn lock_shard<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poisons `m` by panicking while holding its guard (the panic is
/// caught here). Only reachable from the `cache::poison` fail-point;
/// exercises the [`lock_shard`] recovery path under chaos schedules.
fn poison_shard<T>(m: &Mutex<T>) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = lock_shard(m);
        panic!("injected fault: cache::poison");
    }));
    debug_assert!(result.is_err());
}

fn shard_of<K: Hash>(key: &K, shards: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % shards
}

impl DistanceCache {
    /// Builds an empty cache with the given capacities.
    pub fn new(cfg: &DistanceCacheConfig) -> Self {
        let shards = cfg.shards.max(1);
        let per = |total: usize| {
            if total == 0 {
                0
            } else {
                total.div_ceil(shards)
            }
        };
        DistanceCache {
            balls: (0..shards)
                .map(|_| Mutex::new(Shard::new(per(cfg.ball_capacity))))
                .collect(),
            dists: (0..shards)
                .map(|_| Mutex::new(Shard::new(per(cfg.dist_capacity))))
                .collect(),
            ball_hits: AtomicU64::new(0),
            ball_misses: AtomicU64::new(0),
            dist_hits: AtomicU64::new(0),
            dist_misses: AtomicU64::new(0),
        }
    }

    /// The cached ball `⊙(center, radius)`, if present.
    pub fn get_ball(&self, center: PoiId, radius: f64) -> Option<Arc<Vec<(PoiId, f64)>>> {
        if gpssn_failpoint::failpoint!("cache::spurious_miss") {
            // A dropped entry is indistinguishable from a FIFO eviction:
            // the caller recomputes bit-identically and re-inserts.
            self.ball_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let key = (center, radius.to_bits());
        let hit = lock_shard(&self.balls[shard_of(&key, self.balls.len())]).get(&key);
        let tally = if hit.is_some() {
            &self.ball_hits
        } else {
            &self.ball_misses
        };
        tally.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores the ball `⊙(center, radius)`.
    pub fn put_ball(&self, center: PoiId, radius: f64, ball: Arc<Vec<(PoiId, f64)>>) {
        let key = (center, radius.to_bits());
        let shard = &self.balls[shard_of(&key, self.balls.len())];
        if gpssn_failpoint::failpoint!("cache::poison") {
            poison_shard(shard);
        }
        lock_shard(shard).insert(key, ball);
    }

    /// The cached `dist_RN(user, poi)`, if present. Not counted: a probe is one value of a row or column,
    /// which the caller records as a whole with
    /// [`DistanceCache::note_dist`].
    pub fn get_dist(&self, user: UserId, poi: PoiId) -> Option<f64> {
        if gpssn_failpoint::failpoint!("cache::spurious_miss") {
            return None;
        }
        let key = (user, poi);
        lock_shard(&self.dists[shard_of(&key, self.dists.len())]).get(&key)
    }

    /// Records `n` `dist_RN` lookups of one row or column: `hit = true`
    /// when all `n` values were served from the cache, `false` when the
    /// run was recomputed.
    pub(crate) fn note_dist(&self, hit: bool, n: u64) {
        let tally = if hit {
            &self.dist_hits
        } else {
            &self.dist_misses
        };
        tally.fetch_add(n, Ordering::Relaxed);
    }

    /// Stores `dist_RN(user, poi)`.
    pub fn put_dist(&self, user: UserId, poi: PoiId, d: f64) {
        let key = (user, poi);
        let shard = &self.dists[shard_of(&key, self.dists.len())];
        if gpssn_failpoint::failpoint!("cache::poison") {
            poison_shard(shard);
        }
        lock_shard(shard).insert(key, d);
    }

    /// Ball entries currently resident (across all shards).
    pub fn ball_entries(&self) -> usize {
        self.balls.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// Distance entries currently resident (across all shards).
    pub fn dist_entries(&self) -> usize {
        self.dists.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// Lifetime hit/miss/eviction counters across all shards.
    pub fn lifetime_stats(&self) -> CacheLifetimeStats {
        CacheLifetimeStats {
            ball_hits: self.ball_hits.load(Ordering::Relaxed),
            ball_misses: self.ball_misses.load(Ordering::Relaxed),
            ball_evictions: self.balls.iter().map(|s| lock_shard(s).evictions).sum(),
            dist_hits: self.dist_hits.load(Ordering::Relaxed),
            dist_misses: self.dist_misses.load(Ordering::Relaxed),
            dist_evictions: self.dists.iter().map(|s| lock_shard(s).evictions).sum(),
        }
    }

    /// Per-shard occupancy of the ball map, in shard order.
    pub fn ball_shard_occupancy(&self) -> Vec<ShardOccupancy> {
        self.balls
            .iter()
            .map(|s| {
                let g = lock_shard(s);
                ShardOccupancy {
                    entries: g.map.len(),
                    capacity: g.capacity,
                }
            })
            .collect()
    }

    /// Per-shard occupancy of the `dist_RN` map, in shard order.
    pub fn dist_shard_occupancy(&self) -> Vec<ShardOccupancy> {
        self.dists
            .iter()
            .map(|s| {
                let g = lock_shard(s);
                ShardOccupancy {
                    entries: g.map.len(),
                    capacity: g.capacity,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DistanceCacheConfig {
        DistanceCacheConfig {
            ball_capacity: 4,
            dist_capacity: 4,
            shards: 1,
        }
    }

    #[test]
    fn round_trips_values() {
        let c = DistanceCache::new(&tiny());
        assert!(c.get_dist(1, 2).is_none());
        c.put_dist(1, 2, 3.25);
        assert_eq!(c.get_dist(1, 2), Some(3.25));
        assert!(c.get_dist(2, 1).is_none()); // (user, poi), not symmetric

        let ball = Arc::new(vec![(7u32, 1.5f64), (9, 2.0)]);
        c.put_ball(3, 2.5, Arc::clone(&ball));
        assert_eq!(c.get_ball(3, 2.5), Some(ball));
        assert!(c.get_ball(3, 2.5000001).is_none()); // exact radius key
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        let c = DistanceCache::new(&tiny());
        for i in 0..10u32 {
            c.put_dist(i, 0, i as f64);
        }
        assert_eq!(c.dist_entries(), 4);
        // Oldest entries left; newest retained.
        assert!(c.get_dist(0, 0).is_none());
        assert_eq!(c.get_dist(9, 0), Some(9.0));
    }

    #[test]
    fn lifetime_stats_track_hits_misses_evictions() {
        let c = DistanceCache::new(&tiny());
        // Fresh cache: all-zero stats and a safe hit rate.
        assert_eq!(c.lifetime_stats(), CacheLifetimeStats::default());
        assert_eq!(c.lifetime_stats().hit_rate(), 0.0);
        // Ball probes count one lookup each.
        c.put_ball(3, 2.5, Arc::new(vec![(7, 1.5)]));
        assert!(c.get_ball(3, 2.5).is_some()); // hit
        assert!(c.get_ball(4, 2.5).is_none()); // miss

        // `dist_RN` probes count nothing; the caller records each row or
        // column as a whole: a resident 3-value run, then a recomputed
        // 2-value run.
        c.put_dist(1, 1, 1.0);
        assert!(c.get_dist(1, 1).is_some());
        assert!(c.get_dist(2, 2).is_none());
        assert_eq!(c.lifetime_stats().dist_hits, 0);
        assert_eq!(c.lifetime_stats().dist_misses, 0);
        c.note_dist(true, 3);
        c.note_dist(false, 2);
        for i in 0..10u32 {
            c.put_dist(i, 0, i as f64); // overflows cap 4
        }
        let s = c.lifetime_stats();
        assert_eq!((s.ball_hits, s.ball_misses), (1, 1));
        assert_eq!((s.dist_hits, s.dist_misses), (3, 2));
        assert!(s.dist_evictions >= 6, "expected evictions, got {s:?}");
        assert!((s.hit_rate() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn shard_occupancy_reports_entries_and_capacity() {
        let c = DistanceCache::new(&DistanceCacheConfig {
            ball_capacity: 8,
            dist_capacity: 8,
            shards: 2,
        });
        c.put_dist(1, 1, 1.0);
        let occ = c.dist_shard_occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ.iter().map(|o| o.entries).sum::<usize>(), 1);
        assert!(occ.iter().all(|o| o.capacity == 4));
        assert_eq!(c.ball_shard_occupancy().len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = DistanceCache::new(&DistanceCacheConfig {
            ball_capacity: 0,
            dist_capacity: 0,
            shards: 4,
        });
        c.put_dist(1, 1, 1.0);
        c.put_ball(1, 1.0, Arc::new(vec![]));
        assert_eq!(c.dist_entries(), 0);
        assert_eq!(c.ball_entries(), 0);
    }

    #[test]
    fn reinsert_refreshes_without_duplicating() {
        let c = DistanceCache::new(&tiny());
        for _ in 0..10 {
            c.put_dist(1, 1, 2.0);
        }
        assert_eq!(c.dist_entries(), 1);
    }

    #[test]
    fn poisoned_shard_recovers_with_data_intact() {
        let c = Arc::new(DistanceCache::new(&tiny()));
        c.put_dist(5, 5, 7.5);
        // Poison the (single) dist shard by panicking while holding it.
        let c2 = Arc::clone(&c);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = c2.dists[0].lock().unwrap();
            panic!("injected fault while holding the shard lock");
        }));
        assert!(c.dists[0].is_poisoned());
        // Reads and writes keep working; prior entries survive.
        assert_eq!(c.get_dist(5, 5), Some(7.5));
        c.put_dist(6, 6, 1.25);
        assert_eq!(c.get_dist(6, 6), Some(1.25));
    }
}
