//! The three workloads: which dataset each runs on and which queries
//! it sends. The program only ever sees the generated queries.

use gpssn_core::GpSsnQuery;
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};

/// Radii cycled by the closed-loop workloads (the index serves
/// `[0.5, 4]`).
const RADII: [f64; 3] = [1.0, 2.0, 3.0];

/// Users in `cold_refine`'s cycle. Between two visits of one query the
/// other users' `dist_RN` rows overflow the cache many times over, so
/// every visit is cold.
pub const COLD_USERS: usize = 96;

/// Size of `hot_repeat`'s hot user set. Its working set must fit the
/// default distance cache: on the default dataset these 8 users need
/// about 100k of the 131,072 entries, while at 16 users the cache
/// already thrashes.
pub const HOT_USERS: usize = 8;

/// Picks each workload's users from the dataset. `--seed` only orders
/// the requests, so every seed sends the same mix: with per-query costs
/// spread over more than an order of magnitude, a seed-drawn sample of
/// users would move the results more than the machine's own noise.
const POPULATION_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct users, paper-default parameters: refinement-bound, with
    /// a `dist_RN` working set larger than the cache.
    ColdRefine,
    /// A small hot user set repeated after a warm-up pass: the same
    /// refinement work, served mostly from the cross-query cache.
    HotRepeat,
    /// Selective requests streamed as JSONL through `serve_jsonl`:
    /// cheap queries, so pruning and the serving layer show.
    ServeSelective,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdRefine,
        Workload::HotRepeat,
        Workload::ServeSelective,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRefine => "cold_refine",
            Workload::HotRepeat => "hot_repeat",
            Workload::ServeSelective => "serve_selective",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Dataset and scale factor.
    pub fn dataset(self) -> (DatasetKind, f64) {
        match self {
            Workload::ColdRefine | Workload::HotRepeat => (DatasetKind::Uni, 0.1),
            Workload::ServeSelective => (DatasetKind::BriCal, 0.1),
        }
    }

    /// The request sequence, one cycle over the workload's fixed query
    /// population in the order `seed` gives. A run sends it from the
    /// start, wrapping around for as long as it lasts.
    pub fn queries(self, ssn: &SpatialSocialNetwork, seed: u64) -> Vec<GpSsnQuery> {
        let users = eligible_users(ssn);
        let mut queries: Vec<GpSsnQuery> = match self {
            Workload::ColdRefine => users
                .iter()
                .take(COLD_USERS)
                .enumerate()
                .map(|(i, &u)| default_query(u, RADII[i % RADII.len()]))
                .collect(),
            Workload::HotRepeat => {
                let hot = &users[..HOT_USERS.min(users.len())];
                // lcm(|hot|, |RADII|) queries: every pair exactly once.
                let cycle = hot.len() * RADII.len() / gcd(hot.len(), RADII.len());
                (0..cycle)
                    .map(|k| default_query(hot[k % hot.len()], RADII[k % RADII.len()]))
                    .collect()
            }
            Workload::ServeSelective => users
                .iter()
                .map(|&user| GpSsnQuery {
                    user,
                    tau: 3,
                    gamma: 0.5,
                    theta: 1.0,
                    radius: 1.0,
                })
                .collect(),
        };
        shuffle(&mut queries, seed);
        queries
    }
}

/// Paper defaults `τ=5, γ=0.3, θ=0.5` at radius `r`.
fn default_query(user: u32, radius: f64) -> GpSsnQuery {
    GpSsnQuery {
        radius,
        ..GpSsnQuery::with_defaults(user)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Every user with at least one friend, in the fixed population
/// order. A friendless user is statically infeasible for `τ ≥ 2`, so
/// drawing only from these makes any error a real failure.
fn eligible_users(ssn: &SpatialSocialNetwork) -> Vec<u32> {
    let g = ssn.social().graph();
    let mut users: Vec<u32> = (0..g.num_nodes() as u32)
        .filter(|&u| !g.neighbors(u).is_empty())
        .collect();
    shuffle(&mut users, POPULATION_SEED);
    users
}

/// Fisher–Yates with a seeded generator.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// splitmix64: small, seedable, and stable across toolchains.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
