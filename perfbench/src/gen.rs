//! Seeded session generator: the (query, algo) sequence a run plays is
//! fixed by the workload's mix and session count; the seed draws each
//! session's actual-selectivity cell `qa`.

use rqp_serve::SessionSpec;

/// The four query fixtures every workload mixes, at the coarse default
/// resolution.
pub const FIXTURES: [&str; 4] = ["3D_Q15", "4D_Q91", "5D_Q19", "JOB_Q1a"];

/// The discovery algorithms every workload mixes.
pub const ALGOS: [&str; 3] = ["sb", "ab", "pb"];

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; the bias is below
    /// 2^-40 for the grid sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// One cycle of a mix: fixture `f` appears `weights[f]` times per
/// algorithm, interleaved so consecutive sessions rotate over the
/// fixtures (and, over TCP, over the shards that own them).
fn cycle(weights: &[usize; 4]) -> Vec<(usize, usize)> {
    let rounds = weights.iter().copied().max().unwrap_or(0);
    let mut out = Vec::new();
    for round in 0..rounds {
        for a in 0..ALGOS.len() {
            out.extend((0..FIXTURES.len()).filter(|&f| weights[f] > round).map(|f| (f, a)));
        }
    }
    out
}

/// Round `want` up to whole mix cycles.
pub fn session_count(weights: &[usize; 4], want: usize) -> usize {
    let len = cycle(weights).len();
    want.div_ceil(len).max(1) * len
}

/// `n` specs (rounded up to whole mix cycles) with ids `first_id..`. The
/// (query, algo) sequence is the mix cycle repeated, the same for every
/// seed, so every run plays the same sessions in the same order; `seed`
/// draws each session's `qa` uniformly over its fixture's grid.
pub fn specs(
    weights: &[usize; 4],
    cells: &[usize],
    n: usize,
    seed: u64,
    first_id: usize,
) -> Vec<SessionSpec> {
    let mut rng = Rng::new(seed);
    cycle(weights)
        .into_iter()
        .cycle()
        .take(session_count(weights, n))
        .enumerate()
        .map(|(i, (f, a))| SessionSpec {
            id: first_id + i,
            query: FIXTURES[f].to_string(),
            algo: ALGOS[a].to_string(),
            qa: Some(rng.below(cells[f])),
            seed: 0,
        })
        .collect()
}

/// Index of a fixture name in [`FIXTURES`].
pub fn fixture_index(query: &str) -> Option<usize> {
    FIXTURES.iter().position(|f| *f == query)
}
