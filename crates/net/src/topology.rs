//! Topology views over a communicator: hypercube helpers and the r×c
//! grid view used by multi-level algorithms.
//!
//! ## Hypercube
//!
//! hQuick (§IV) arranges `2^⌊log p⌋` PEs as a d-dimensional hypercube and
//! peels one dimension per iteration; these helpers keep the bit fiddling
//! in one place.
//!
//! ## Grid view
//!
//! The follow-up work on multi-level string sorting (Kurpicz, Mehnert,
//! Sanders, Schimek: "Scalable Distributed String Sorting", 2024) replaces
//! the single-level all-to-all — where every PE talks to all `p − 1` peers
//! — with grid communication: for `p = d₁·…·dₗ`, data moves level by
//! level inside ever-smaller blocks of PEs, cutting the per-PE partner
//! count from `Θ(p)` to `Σ(dᵢ − 1)`. The two-level `r×c` grid is the case
//! `dims = [c, r]`: data first moves *within rows* (`c − 1` partners)
//! into the right column, then *within columns* (`r − 1` partners) to its
//! final PE — `O(√p)` partners for a square grid.
//!
//! [`multi_grid_view`] builds that view from counted [`Comm::split`]
//! calls. The rank mapping is deterministic and makes every block a
//! contiguous rank range; for `dims = [c, r]` it is column-major:
//!
//! ```text
//! world rank v  ⇔  (row, col) = (v mod r, v ⌊/⌋ r),   v = col·r + row
//! ```
//!
//! so each *column* is a contiguous world-rank block. An exchange that
//! routes the block's `j`-th range into sub-block `j` at every level and
//! then orders each PE's data therefore leaves the world-rank-ordered
//! concatenation globally sorted — the output invariant every
//! distributed sorter promises.
//!
//! Accounting follows the collective rules of [`crate::comm`]: each split
//! performs one counted all-gather of the color (`⌈log p⌉` latency
//! rounds, `O(p)` volume), and traffic on the level communicators is
//! metered exactly like any other communicator traffic.

use crate::comm::Comm;

/// Largest `d` with `2^d ≤ p`; the paper's `d = ⌊log p⌋` (0 for `p = 1`).
pub fn hypercube_dim(p: usize) -> u32 {
    debug_assert!(p >= 1);
    usize::BITS - 1 - p.leading_zeros()
}

/// Number of PEs used by the hypercube algorithms: `2^⌊log p⌋ ≥ p/2`.
pub fn hypercube_size(p: usize) -> usize {
    1 << hypercube_dim(p)
}

/// Communication partner of `rank` across dimension `dim`.
pub fn partner(rank: usize, dim: u32) -> usize {
    rank ^ (1 << dim)
}

/// Whether `rank` is in the lower half of its subcube along `dim`.
pub fn is_lower(rank: usize, dim: u32) -> bool {
    rank & (1 << dim) == 0
}

/// Identifier of the `i`-dimensional subcube containing `rank` (its high
/// bits above dimension `i`).
pub fn subcube_id(rank: usize, dims: u32) -> usize {
    rank >> dims
}

// ---------------------------------------------------------------------
// grid view
// ---------------------------------------------------------------------

/// Picks the r×c factorization the grid algorithms use for `p` PEs: the
/// **largest `r ≤ √p` dividing `p`** (so `r ≤ c` and the grid is as close
/// to square as `p` allows — square grids minimize `r + c`, the per-PE
/// partner count of a two-level exchange).
///
/// Returns `None` when no grid with `r, c ≥ 2` exists (`p < 4` or `p`
/// prime); callers fall back to their single-level variant.
pub fn grid_dims(p: usize) -> Option<(usize, usize)> {
    if p < 4 {
        return None;
    }
    let mut r = 1usize;
    while (r + 1) * (r + 1) <= p {
        r += 1;
    }
    while r >= 2 {
        if p.is_multiple_of(r) {
            return Some((r, p / r));
        }
        r -= 1;
    }
    None
}

// ---------------------------------------------------------------------
// multi-level grid view
// ---------------------------------------------------------------------

/// Ascending prime factorization of `p` by trial division (`[]` for
/// `p < 2`).
fn prime_factors(mut p: usize) -> Vec<usize> {
    let mut factors = Vec::new();
    let mut d = 2usize;
    while d * d <= p {
        while p.is_multiple_of(d) {
            factors.push(d);
            p /= d;
        }
        d += 1;
    }
    if p > 1 {
        factors.push(p);
    }
    factors
}

/// Picks the level fan-outs `d₁ ≥ d₂ ≥ … ≥ dₗ` (each ≥ 2, product `p`)
/// a multi-level grid algorithm uses for `p` PEs.
///
/// Starts from the prime factorization — the *deepest* factorization,
/// which minimizes the per-PE exchange partner count `Σ(dᵢ − 1)` (for
/// any composite `d = a·b` with `a, b ≥ 2`, `(a−1) + (b−1) ≤ d − 1`) —
/// and then repeatedly merges the two smallest factors while the merged
/// fan-out stays `≤ max_level_size`. More merging means fewer levels,
/// i.e. fewer rounds of moving the payload, at the price of more
/// partners per level: `max_level_size` is that latency/volume dial.
/// `max_level_size = 0` (or anything `< 4`) disables merging and yields
/// the full prime factorization; prime factors larger than
/// `max_level_size` cannot be split and are kept as their own level
/// (the fall-back to fewer, larger levels).
///
/// Returns `None` when no multi-level grid with every `dᵢ ≥ 2` exists
/// (`p < 4` or `p` prime); callers fall back to their single-level
/// variant, exactly like [`grid_dims`].
///
/// ```
/// use dss_net::topology::multi_grid_dims;
/// assert_eq!(multi_grid_dims(8, 0), Some(vec![2, 2, 2])); // Σ(dᵢ−1) = 3
/// assert_eq!(multi_grid_dims(27, 0), Some(vec![3, 3, 3])); // Σ(dᵢ−1) = 6
/// assert_eq!(multi_grid_dims(12, 0), Some(vec![3, 2, 2]));
/// assert_eq!(multi_grid_dims(12, 4), Some(vec![4, 3]));
/// assert_eq!(multi_grid_dims(7, 0), None); // prime: single-level fallback
/// ```
pub fn multi_grid_dims(p: usize, max_level_size: usize) -> Option<Vec<usize>> {
    if p < 4 {
        return None;
    }
    let mut factors = prime_factors(p);
    if factors.len() < 2 {
        return None; // prime
    }
    // Merge the two smallest factors while the result respects the cap,
    // but never below two levels (a one-level "grid" is no grid at all).
    while factors.len() > 2 && factors[0] * factors[1] <= max_level_size {
        let merged = factors[0] * factors[1];
        factors.splice(0..2, [merged]);
        factors.sort_unstable();
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    Some(factors)
}

/// Factors `p` into **exactly** `levels` fan-outs (each ≥ 2, descending,
/// product `p`), as balanced as the prime factorization of `p` allows:
/// starting from the primes, the two smallest factors are merged until
/// `levels` remain. Returns `None` when `p` has fewer than `levels`
/// prime factors (counted with multiplicity) — i.e. when no such tiling
/// exists; `levels = 1` yields `[p]` for any `p ≥ 2`.
///
/// ```
/// use dss_net::topology::factor_into_levels;
/// assert_eq!(factor_into_levels(16, 2), Some(vec![4, 4]));
/// assert_eq!(factor_into_levels(12, 3), Some(vec![3, 2, 2]));
/// assert_eq!(factor_into_levels(8, 4), None); // 8 = 2·2·2 has only 3 factors
/// ```
pub fn factor_into_levels(p: usize, levels: usize) -> Option<Vec<usize>> {
    if levels == 0 {
        return None;
    }
    let mut factors = prime_factors(p);
    if factors.len() < levels {
        return None;
    }
    while factors.len() > levels {
        let merged = factors[0] * factors[1];
        factors.splice(0..2, [merged]);
        factors.sort_unstable();
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    Some(factors)
}

/// One level of a [`MultiGridComm`] (see [`multi_grid_view`] for the
/// rank mapping): at level `i` the PEs holding one contiguous data range
/// form a *block* of `bᵢ` consecutive parent ranks, cut into `dᵢ`
/// *sub-blocks* of `bᵢ₊₁ = bᵢ/dᵢ` ranks each.
pub struct MultiGridLevel {
    /// Fan-out `dᵢ`: how many sub-ranges this level's exchange scatters
    /// the block's data into.
    pub dim: usize,
    /// Block size `bᵢ = p / (d₁·…·dᵢ₋₁)`.
    pub block: usize,
    /// The exchange communicator: the `dᵢ` PEs sharing this PE's offset
    /// within their sub-block, one per sub-block of the block. Its rank
    /// equals this PE's sub-block (= bucket) index, so bucket `j` of the
    /// level's partition travels to exchange-comm rank `j`.
    pub exchange: Comm,
    /// The sampling communicator covering the whole block (size `bᵢ`,
    /// rank = offset within the block), over which this level's
    /// splitters are determined per group. `None` at level 0, where the
    /// block is the base communicator itself, and at the last level,
    /// where the block coincides with [`MultiGridLevel::exchange`] —
    /// [`MultiGridComm::sampling_comm`] resolves both.
    sampling: Option<Comm>,
}

/// The ℓ-level grid view of a communicator built by [`multi_grid_view`]:
/// one [`MultiGridLevel`] per fan-out `dᵢ` of the factorization
/// `p = d₁·d₂·…·dₗ`.
pub struct MultiGridComm {
    levels: Vec<MultiGridLevel>,
}

impl MultiGridComm {
    /// The per-level views, outermost (whole communicator) first.
    pub fn levels(&self) -> &[MultiGridLevel] {
        &self.levels
    }

    /// The level fan-outs `[d₁, …, dₗ]`.
    pub fn dims(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.dim).collect()
    }

    /// Per-PE exchange partner count over all levels: `Σ(dᵢ − 1)` —
    /// the headline quantity a multi-level exchange minimizes (vs
    /// `p − 1` for a single-level all-to-all).
    pub fn partners_per_pe(&self) -> usize {
        self.levels.iter().map(|l| l.dim - 1).sum()
    }

    /// The communicator spanning level `i`'s block — the group inside
    /// which that level's splitters are sampled. `base` must be the
    /// communicator this view was built from; it *is* the block at
    /// level 0, and at the last level the block coincides with the
    /// exchange communicator (sub-blocks of size 1).
    pub fn sampling_comm<'a>(&'a self, i: usize, base: &'a Comm) -> &'a Comm {
        debug_assert_eq!(base.size(), self.levels[0].block);
        if i == 0 {
            base
        } else if i + 1 == self.levels.len() {
            &self.levels[i].exchange
        } else {
            self.levels[i].sampling.as_ref().expect("inner level")
        }
    }
}

/// Splits `comm` into the ℓ-level grid view for the factorization
/// `dims = [d₁, …, dₗ]` (requires `d₁·…·dₗ == comm.size()`, every
/// `dᵢ ≥ 2`, `ℓ ≥ 2`).
///
/// The rank mapping generalizes the column-major `r×c` grid: at
/// level `i` with block size `bᵢ` (`b₁ = p`, `bᵢ₊₁ = bᵢ/dᵢ`), rank `v`
/// sits in block `⌊v/bᵢ⌋` at offset `o = v mod bᵢ`, i.e. in sub-block
/// `g = ⌊o/bᵢ₊₁⌋` at offset `u = o mod bᵢ₊₁`. Blocks and sub-blocks are
/// contiguous rank ranges, so routing the block's `j`-th sub-range into
/// sub-block `j` at every level leaves the rank-ordered concatenation
/// globally sorted. For `dims = [c, r]` this is the column-major grid
/// `(row, col) = (v mod r, v / r)` with the row communicator as level 1
/// and the column communicator as level 2.
///
/// Each level's exchange communicator joins the `dᵢ` PEs with equal
/// `(block, u)` across the block's sub-blocks; because [`Comm::split`]
/// orders members by parent rank, its rank equals the sub-block index
/// `g` — asserted per level, no renumbering needed. `2ℓ − 2` counted
/// splits build the view (the last level's block doubles as its own
/// exchange communicator, and level 0's block is `comm` itself) — one
/// row split and one column split when `ℓ = 2`.
pub fn multi_grid_view(comm: &Comm, dims: &[usize]) -> MultiGridComm {
    assert!(dims.len() >= 2, "a multi-level grid needs >= 2 levels");
    assert!(dims.iter().all(|&d| d >= 2), "level fan-outs must be >= 2");
    assert_eq!(
        dims.iter().product::<usize>(),
        comm.size(),
        "grid levels {dims:?} must tile the communicator exactly"
    );
    let v = comm.rank();
    let mut levels = Vec::with_capacity(dims.len());
    let mut block = comm.size();
    for (i, &d) in dims.iter().enumerate() {
        let sub = block / d;
        let block_idx = v / block;
        let o = v % block;
        let (g, u) = (o / sub, o % sub);
        let last = i + 1 == dims.len();
        // The block communicator (contiguous ranks, rank = offset).
        let sampling = (i > 0 && !last).then(|| {
            let s = comm.split(block_idx as u64);
            debug_assert_eq!(s.size(), block);
            debug_assert_eq!(s.rank(), o);
            s
        });
        // The exchange communicator: same block, same sub-block offset
        // u, one member per sub-block. At the last level sub == 1, so
        // its color ranges over the blocks and it is the block itself.
        let exchange = comm.split((block_idx * sub + u) as u64);
        debug_assert_eq!(exchange.size(), d);
        debug_assert_eq!(exchange.rank(), g);
        levels.push(MultiGridLevel {
            dim: d,
            block,
            exchange,
            sampling,
        });
        block = sub;
    }
    MultiGridComm { levels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_sizes() {
        assert_eq!(hypercube_dim(1), 0);
        assert_eq!(hypercube_dim(2), 1);
        assert_eq!(hypercube_dim(3), 1);
        assert_eq!(hypercube_dim(4), 2);
        assert_eq!(hypercube_dim(20), 4);
        assert_eq!(hypercube_size(20), 16);
        assert_eq!(hypercube_size(1280), 1024);
    }

    #[test]
    fn partners_are_symmetric() {
        for p in [2usize, 4, 8, 16] {
            let d = hypercube_dim(p);
            for r in 0..p {
                for k in 0..d {
                    let q = partner(r, k);
                    assert_eq!(partner(q, k), r);
                    assert_ne!(is_lower(r, k), is_lower(q, k));
                }
            }
        }
    }

    #[test]
    fn subcube_ids_group_correctly() {
        // In an 8-cube split along 2 low dims: {0..3} and {4..7}.
        assert_eq!(subcube_id(3, 2), 0);
        assert_eq!(subcube_id(4, 2), 1);
        assert_eq!(subcube_id(7, 2), 1);
    }

    #[test]
    fn grid_dims_prefers_near_square_factorizations() {
        assert_eq!(grid_dims(4), Some((2, 2)));
        assert_eq!(grid_dims(6), Some((2, 3)));
        assert_eq!(grid_dims(12), Some((3, 4)));
        assert_eq!(grid_dims(16), Some((4, 4)));
        assert_eq!(grid_dims(18), Some((3, 6)));
        assert_eq!(grid_dims(64), Some((8, 8)));
        // No nontrivial grid: tiny or prime PE counts.
        for p in [0usize, 1, 2, 3, 5, 7, 11, 13, 97] {
            assert_eq!(grid_dims(p), None, "p={p}");
        }
        // r ≤ c always, and r·c = p.
        for p in 4..200usize {
            if let Some((r, c)) = grid_dims(p) {
                assert!(r >= 2 && r <= c && r * c == p, "p={p} -> {r}x{c}");
            }
        }
    }

    #[test]
    fn multi_grid_dims_factorizations() {
        // Uncapped: full prime factorization, descending.
        assert_eq!(multi_grid_dims(8, 0), Some(vec![2, 2, 2]));
        assert_eq!(multi_grid_dims(12, 0), Some(vec![3, 2, 2]));
        assert_eq!(multi_grid_dims(16, 0), Some(vec![2, 2, 2, 2]));
        assert_eq!(multi_grid_dims(27, 0), Some(vec![3, 3, 3]));
        assert_eq!(multi_grid_dims(60, 0), Some(vec![5, 3, 2, 2]));
        // Caps merge small factors into larger levels.
        assert_eq!(multi_grid_dims(16, 4), Some(vec![4, 4]));
        assert_eq!(multi_grid_dims(12, 4), Some(vec![4, 3]));
        assert_eq!(multi_grid_dims(64, 4), Some(vec![4, 4, 4]));
        // A prime factor above the cap stays as its own level.
        assert_eq!(multi_grid_dims(14, 4), Some(vec![7, 2]));
        // Never merged below two levels, even with a huge cap.
        assert_eq!(multi_grid_dims(6, usize::MAX), Some(vec![3, 2]));
        // No multi-level grid: tiny or prime PE counts.
        for p in [0usize, 1, 2, 3, 5, 7, 11, 13, 97] {
            assert_eq!(multi_grid_dims(p, 0), None, "p={p}");
        }
        // Structural invariants + minimal partner count when uncapped.
        for p in 4..300usize {
            if let Some(d) = multi_grid_dims(p, 0) {
                assert!(d.len() >= 2 && d.windows(2).all(|w| w[0] >= w[1]));
                assert!(d.iter().all(|&x| x >= 2));
                assert_eq!(d.iter().product::<usize>(), p, "p={p}");
                // Deepest factorization beats any two-level grid on
                // Σ(dᵢ−1).
                if let Some((r, c)) = grid_dims(p) {
                    let multi: usize = d.iter().map(|x| x - 1).sum();
                    assert!(multi <= r + c - 2, "p={p}");
                }
            }
        }
    }

    #[test]
    fn factor_into_levels_exact_counts() {
        assert_eq!(factor_into_levels(16, 2), Some(vec![4, 4]));
        assert_eq!(factor_into_levels(16, 3), Some(vec![4, 2, 2]));
        assert_eq!(factor_into_levels(16, 4), Some(vec![2, 2, 2, 2]));
        assert_eq!(factor_into_levels(12, 2), Some(vec![4, 3]));
        assert_eq!(factor_into_levels(12, 3), Some(vec![3, 2, 2]));
        assert_eq!(factor_into_levels(30, 3), Some(vec![5, 3, 2]));
        assert_eq!(factor_into_levels(7, 1), Some(vec![7]));
        // Impossible tilings.
        assert_eq!(factor_into_levels(8, 4), None);
        assert_eq!(factor_into_levels(7, 2), None);
        assert_eq!(factor_into_levels(1, 1), None);
        assert_eq!(factor_into_levels(12, 0), None);
    }

    #[test]
    fn multi_grid_view_mapping_invariants() {
        use crate::runner::{run_spmd, RunConfig};
        // 12 = 3×2×2: check every level's comm sizes, ranks and block
        // arithmetic against the closed-form mapping.
        let dims = vec![3usize, 2, 2];
        let p: usize = dims.iter().product();
        let dims_ref = &dims;
        let res = run_spmd(p, RunConfig::default(), move |comm| {
            let g = multi_grid_view(comm, dims_ref);
            assert_eq!(g.dims(), *dims_ref);
            assert_eq!(g.partners_per_pe(), 2 + 1 + 1);
            let v = comm.rank();
            let mut block = p;
            let mut coords = Vec::new();
            for (i, level) in g.levels().iter().enumerate() {
                let sub = block / level.dim;
                let o = v % block;
                assert_eq!(level.block, block);
                assert_eq!(level.exchange.size(), level.dim);
                assert_eq!(level.exchange.rank(), o / sub);
                let s = g.sampling_comm(i, comm);
                assert_eq!(s.size(), block);
                assert_eq!(s.rank(), o);
                coords.push(o / sub);
                block = sub;
            }
            coords
        });
        // The per-level sub-block coordinates enumerate 0..p in mixed
        // radix, i.e. every PE has a distinct coordinate tuple and rank
        // order equals lexicographic coordinate order.
        let coords = res.values;
        for (v, c) in coords.iter().enumerate() {
            let mut rank = 0usize;
            let mut block = p;
            for (i, &g) in c.iter().enumerate() {
                let sub = block / dims[i];
                rank += g * sub;
                block = sub;
            }
            assert_eq!(rank, v, "coords {c:?}");
        }
    }

    #[test]
    fn grid_view_mapping_and_routing() {
        use crate::runner::{run_spmd, RunConfig};
        use crate::Tag;
        // dims = [c, r] is the column-major r×c grid: level 0 exchange ≙
        // row comm (size c, rank = col), level 1 exchange ≙ column comm
        // (size r, rank = row).
        let (r, c) = (2usize, 3usize);
        let res = run_spmd(r * c, RunConfig::default(), move |comm| {
            let g = multi_grid_view(comm, &[c, r]);
            let (row, col) = (&g.levels()[0].exchange, &g.levels()[1].exchange);
            assert_eq!(g.dims(), vec![c, r]);
            assert_eq!(row.size(), c);
            assert_eq!(col.size(), r);
            let (my_row, my_col) = (col.rank(), row.rank());
            let rank_of = |i: usize, j: usize| j * r + i;
            // Column-major mapping: v = col·r + row.
            assert_eq!(comm.rank(), rank_of(my_row, my_col));
            assert_eq!(my_row, comm.rank() % r);
            assert_eq!(my_col, comm.rank() / r);
            // Row and column comms route independently even with the same
            // tag in flight everywhere: ring-pass the world rank in both.
            let t = Tag::user(3);
            row.send((my_col + 1) % c, t, vec![comm.rank() as u8]);
            let from_row = row.recv((my_col + c - 1) % c, t);
            col.send((my_row + 1) % r, t, vec![comm.rank() as u8]);
            let from_col = col.recv((my_row + r - 1) % r, t);
            let expect_row = rank_of(my_row, (my_col + c - 1) % c);
            let expect_col = rank_of((my_row + r - 1) % r, my_col);
            assert_eq!(from_row, vec![expect_row as u8]);
            assert_eq!(from_col, vec![expect_col as u8]);
            (my_row, my_col)
        });
        // Every grid position is occupied exactly once.
        let mut seen: Vec<(usize, usize)> = res.values;
        seen.sort_unstable();
        let expect: Vec<(usize, usize)> =
            (0..c).flat_map(|j| (0..r).map(move |i| (i, j))).collect();
        let mut expect = expect;
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }
}
