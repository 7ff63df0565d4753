//! The merge-sort family: MS and MS-simple (§V), PDMS and PDMS-Golomb
//! (§VI), and their grid variants MS2L, MSML, PD-MS2L and PD-MSML
//! (Kurpicz, Mehnert, Sanders, Schimek: "Scalable Distributed String
//! Sorting", 2024) — one driver, [`MergeSort`], over two values.
//!
//! Every member is the paper's four-step merge sort (Fig. 1):
//!
//! 1. **sort locally**, producing the LCP array as a by-product;
//! 2. **partition**: regular sampling (string-, character- or
//!    distinguishing-prefix-based, Theorems 2/3), splitters selected from
//!    the sorted sample;
//! 3. **all-to-all exchange** through the [`StringAllToAll`] engine in the
//!    configured [`ExchangeCodec`] — LCP compression ships repeated
//!    prefixes once, MS-simple ships plain strings;
//! 4. **multiway merge** with the LCP loser tree (plain tree for
//!    MS-simple).
//!
//! The members differ only in two values of [`MergeSortConfig`]:
//!
//! * **`prefix`** — `Some` runs Step 1+ε between steps 1 and 2: the
//!   duplicate-detection-driven prefix doubling of [`dss_dedup`]
//!   approximates every string's distinguishing prefix length, and only
//!   those prefixes are sampled, exchanged and merged (PDMS). The output
//!   is then the *permutation*: sorted prefixes plus origin tags naming
//!   each full string's PE and local index, while the full strings stay
//!   home, sorted, as [`SortedRun::local_store`] — enough for suffix
//!   sorting, pattern search and search-tree construction (§VI).
//! * **`plan`** ([`LevelPlan`]) — how many times steps 2–4 repeat.
//!   `Flat` runs them once over all `p` PEs (`p − 1` exchange partners).
//!   The grid plans factor `p = d₁·…·dₗ` with [`multi_grid_view`] and run
//!   one round per level inside ever-smaller *blocks* of PEs that hold
//!   one contiguous range of the global order: level `i` cuts the
//!   block's data into `dᵢ` sub-ranges and routes sub-range `j` to
//!   sub-block `j`, so a PE contacts `Σ(dᵢ − 1)` partners instead of
//!   `p − 1` — at the price of moving the payload ℓ times.
//!   `Grid { rows }` is the two-level `r×c` grid (dims `[c, r]`: row
//!   exchange, then column exchange) whose level-1 splitters are sampled
//!   over the *world* communicator, so they are true global order
//!   statistics. `Multi { levels, max_level_size }` is the ℓ-level grid
//!   whose splitters are sampled *inside each block*
//!   ([`partition::determine_group_splitters`]), so splitter traffic
//!   never crosses block boundaries.
//!
//! Truncation, sampling weights and origin tags enter at level 0 only:
//! from level 1 on the local sets already *are* the truncated prefixes,
//! and the origins ride through every later codec and merge unchanged.
//! One engine serves every level, so later levels reuse the pooled
//! decode scratch of earlier ones. Without prefix doubling each level's
//! input is released right after its exchange.
//!
//! When `p` admits no grid (`p < 4`, `p` prime, or `levels = 1`), the
//! grid plans run the same loop as `Flat`. A `rows`/`levels` value that
//! cannot tile `p` panics on every PE before any work: a bad grid knob
//! must fail loudly, not silently sort single-level.
//!
//! Phase names: `local_sort`, `prefix_doubling`, `grid_setup`, then
//! `partition`/`exchange`/`merge` per level — unsuffixed for a flat run,
//! `_row`/`_col` for `Grid`, `_l{i}` for `Multi`.

use crate::exchange::{ExchangeCodec, ExchangeMode, ExchangePayload, StringAllToAll};
use crate::output::{origin_tag, SortedRun};
use crate::partition::{self, PartitionConfig};
use crate::{reject_sentinel_bytes, DistSorter};
use dss_dedup::prefix_doubling::{approx_dist_prefixes, PrefixDoublingConfig};
use dss_net::topology::{factor_into_levels, grid_dims, multi_grid_dims, multi_grid_view};
use dss_net::trace::{self, cat};
use dss_net::Comm;
use dss_strkit::sort::{par_sort_with_lcp, threads_from_env};
use dss_strkit::StringSet;
use std::sync::OnceLock;

/// Parses a `DSS_MSML_LEVELS` value into [`LevelPlan::Multi`]'s
/// `levels`: unset, empty or `auto` defer to the automatic (deepest)
/// factorization (`0`); anything else must be a positive level count.
/// Invalid values panic with the offending value — a typo'd knob must
/// fail loudly, not silently change the grid depth (same policy as
/// `DSS_THREADS` and `DSS_EXCHANGE_MODE`).
pub fn parse_msml_levels(raw: Option<&str>) -> usize {
    match raw.map(str::trim) {
        None | Some("") | Some("auto") => 0,
        Some(v) => match v.parse::<usize>() {
            Ok(l) if l >= 1 => l,
            _ => panic!("DSS_MSML_LEVELS must be 'auto' or a positive level count, got '{v}'"),
        },
    }
}

/// The validated `DSS_MSML_LEVELS` knob (0 ⇒ auto). Cached after the
/// first call, like `ExchangeMode::from_env`.
pub fn msml_levels_from_env() -> usize {
    static LEVELS: OnceLock<usize> = OnceLock::new();
    *LEVELS.get_or_init(|| match std::env::var("DSS_MSML_LEVELS") {
        Ok(v) => parse_msml_levels(Some(&v)),
        Err(std::env::VarError::NotPresent) => parse_msml_levels(None),
        Err(e) => panic!("DSS_MSML_LEVELS must be valid unicode: {e}"),
    })
}

/// How often (and over which PE groups) partition → exchange → merge
/// repeats (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelPlan {
    /// One round over all PEs (MS, PDMS).
    Flat,
    /// Two-level `r×c` grid with world-scope level-1 sampling (MS2L,
    /// PD-MS2L). `rows: 0` ⇒ the near-square [`grid_dims`] choice; an
    /// explicit value must be ≥ 2 and divide `p` with a quotient ≥ 2.
    Grid { rows: usize },
    /// ℓ-level grid with per-block sampling (MSML, PD-MSML). `levels: 0`
    /// ⇒ the deepest factorization [`multi_grid_dims`] yields with each
    /// fan-out capped at `max_level_size` (`0` ⇒ uncapped); `1` ⇒ one
    /// flat round; any other value must tile `p` into that many fan-outs
    /// ≥ 2.
    Multi {
        levels: usize,
        max_level_size: usize,
    },
}

impl LevelPlan {
    /// The multi-level plan at the `DSS_MSML_LEVELS` depth, uncapped.
    pub fn multi_from_env() -> Self {
        LevelPlan::Multi {
            levels: msml_levels_from_env(),
            max_level_size: 0,
        }
    }

    /// The level fan-outs `[d₁, …, dₗ]` this plan runs on `p` PEs
    /// (`None` ⇒ one flat round). Panics on an explicit `rows`/`levels`
    /// that cannot tile `p`.
    fn dims(&self, p: usize) -> Option<Vec<usize>> {
        match *self {
            LevelPlan::Flat => None,
            LevelPlan::Grid { rows: 0 } => grid_dims(p).map(|(r, c)| vec![c, r]),
            LevelPlan::Grid { rows: r } => {
                assert!(
                    r >= 2 && p.is_multiple_of(r) && p / r >= 2,
                    "LevelPlan::Grid rows = {r} does not tile p = {p} PEs into an \
                     r x c grid with r, c >= 2"
                );
                Some(vec![p / r, r])
            }
            LevelPlan::Multi {
                levels: 0,
                max_level_size,
            } => multi_grid_dims(p, max_level_size),
            LevelPlan::Multi { levels: 1, .. } => None,
            LevelPlan::Multi { levels: l, .. } => {
                Some(factor_into_levels(p, l).unwrap_or_else(|| {
                    panic!(
                        "LevelPlan::Multi levels / DSS_MSML_LEVELS = {l} cannot tile p = {p} PEs \
                     into {l} grid levels of size >= 2"
                    )
                }))
            }
        }
    }

    /// Phase-name suffix of grid level `i`.
    fn suffix(&self, i: usize) -> String {
        match self {
            LevelPlan::Flat => String::new(),
            LevelPlan::Grid { .. } => ["_row", "_col"][i].to_string(),
            LevelPlan::Multi { .. } => format!("_l{i}"),
        }
    }
}

/// Configuration of the merge-sort family (see the module docs; the
/// [`crate::Algorithm`] presets name the paper's members).
#[derive(Debug, Clone, Copy)]
pub struct MergeSortConfig {
    /// Exchange levels.
    pub plan: LevelPlan,
    /// Step 1+ε parameters (growth factor, initial guess, fingerprint
    /// width, Golomb coding); `None` ships full strings. Validated before
    /// any work.
    pub prefix: Option<PrefixDoublingConfig>,
    /// Wire format of every level's exchange. [`ExchangeCodec::Plain`]
    /// also selects the plain loser-tree merge (MS-simple).
    pub codec: ExchangeCodec,
    /// Blocking or pipelined exchange, applied to every level and to the
    /// sample sorts (defaults to the `DSS_EXCHANGE_MODE` knob).
    pub mode: ExchangeMode,
    /// Shared-memory threads per PE for the local sort, the sample sorts
    /// and every merge (defaults to the `DSS_THREADS` knob). Output is
    /// byte-identical for every thread count.
    pub threads: usize,
    /// Sampling/splitter policy, used at every level.
    /// `SamplingPolicy::DistPrefix` balances approximated
    /// distinguishing-prefix characters.
    pub partition: PartitionConfig,
}

impl Default for MergeSortConfig {
    /// Flat MS: LCP-compressed exchange, no prefix doubling.
    fn default() -> Self {
        Self {
            plan: LevelPlan::Flat,
            prefix: None,
            codec: ExchangeCodec::LcpCompressed,
            mode: ExchangeMode::default(),
            threads: threads_from_env(),
            partition: PartitionConfig::default(),
        }
    }
}

/// The distributed string merge sort (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct MergeSort {
    pub cfg: MergeSortConfig,
}

impl MergeSort {
    /// The sorter with a custom configuration.
    pub fn with_config(cfg: MergeSortConfig) -> Self {
        Self { cfg }
    }
}

/// Step 1+ε's output, as the level-0 round consumes it.
struct PrefixFront {
    /// `approx[i].min(len(sᵢ))` — characters of string `i` that cross the
    /// wire ([`ExchangePayload::truncate`]).
    trunc: Vec<u32>,
    /// `approx[i]` — splitter sampling weights under `DistPrefix`.
    weights: Vec<u32>,
    /// `origin_tag(rank, i)` for every local string.
    origins: Vec<u64>,
}

/// Runs Step 1+ε over a locally sorted set. Collective.
fn prefix_front(
    comm: &Comm,
    set: &StringSet,
    lcps: &[u32],
    cfg: &PrefixDoublingConfig,
) -> PrefixFront {
    let (approx, _) = approx_dist_prefixes(comm, set, lcps, cfg);
    PrefixFront {
        trunc: (0..set.len())
            .map(|i| approx[i].min(set.get(i).len() as u32))
            .collect(),
        weights: approx,
        origins: (0..set.len()).map(|i| origin_tag(comm.rank(), i)).collect(),
    }
}

impl DistSorter for MergeSort {
    fn name(&self) -> &'static str {
        let cfg = &self.cfg;
        match (cfg.plan, cfg.prefix) {
            (LevelPlan::Flat, None) if cfg.codec == ExchangeCodec::Plain => "MS-simple",
            (LevelPlan::Flat, None) => "MS",
            (LevelPlan::Flat, Some(pd)) if pd.golomb => "PDMS-Golomb",
            (LevelPlan::Flat, Some(_)) => "PDMS",
            (LevelPlan::Grid { .. }, None) => "MS2L",
            (LevelPlan::Grid { .. }, Some(_)) => "PD-MS2L",
            (LevelPlan::Multi { .. }, None) => "MSML",
            (LevelPlan::Multi { .. }, Some(_)) => "PD-MSML",
        }
    }

    fn sort(&self, comm: &Comm, mut input: StringSet) -> SortedRun {
        let cfg = &self.cfg;
        if let Some(pd) = &cfg.prefix {
            pd.validate();
        }
        let _algo = trace::span_args(
            cat::ALGO,
            self.name(),
            [("strings", input.len() as u64), ("", 0)],
        );
        let p = comm.size();
        // Resolve (and validate) the plan before any work so a bad grid
        // knob fails loudly on every PE, every run.
        let dims = cfg.plan.dims(p);

        comm.set_phase("local_sort");
        reject_sentinel_bytes(comm, &input);
        let (lcps, _) = par_sort_with_lcp(&mut input, cfg.threads);
        let pd = cfg.prefix.is_some();
        if p == 1 {
            return SortedRun {
                lcps: (cfg.codec != ExchangeCodec::Plain).then_some(lcps),
                origins: pd.then(|| (0..input.len()).map(|i| origin_tag(0, i)).collect()),
                local_store: pd.then(|| input.clone()),
                set: input,
            };
        }

        // Step 1+ε: approximate distinguishing prefix lengths, once.
        let front = cfg.prefix.map(|pd| {
            comm.set_phase("prefix_doubling");
            prefix_front(comm, &input, &lcps, &pd)
        });
        // The counted splits of the grid view are communication — keep
        // them out of the local_sort phase.
        let grid = dims.map(|dims| {
            comm.set_phase("grid_setup");
            multi_grid_view(comm, &dims)
        });
        // Per level: (exchange comm, sampling comm, fan-out).
        let levels: Vec<(&Comm, &Comm, usize)> = match &grid {
            None => vec![(comm, comm, p)],
            Some(g) => (g.levels().iter().enumerate())
                .map(|(i, l)| (&l.exchange, g.sampling_comm(i, comm), l.dim))
                .collect(),
        };
        let plan = if grid.is_some() {
            cfg.plan
        } else {
            LevelPlan::Flat
        };
        // One mode (and thread count) for every byte this run moves.
        let mut pcfg = cfg.partition;
        pcfg.mode = cfg.mode;
        pcfg.threads = cfg.threads;
        let mut engine = StringAllToAll::with_mode(cfg.codec, cfg.mode).with_threads(cfg.threads);

        let (weights, trunc, origins) = match front {
            Some(f) => (Some(f.weights), Some(f.trunc), Some(f.origins)),
            None => (None, None, None),
        };
        let mut run = SortedRun {
            set: input,
            lcps: Some(lcps),
            origins,
            local_store: None,
        };
        for (i, &(exchange, sampling, dim)) in levels.iter().enumerate() {
            let suffix = plan.suffix(i);
            // Only level 0 truncates and weighs: later levels already
            // hold the truncated prefixes.
            let (weights, trunc) = match i {
                0 => (weights.as_deref(), trunc.as_deref()),
                _ => (None, None),
            };
            comm.set_phase(&format!("partition{suffix}"));
            let splitters = if matches!(plan, LevelPlan::Multi { .. }) {
                partition::determine_group_splitters(sampling, &run.set, dim, &pcfg, weights, trunc)
            } else {
                partition::determine_splitters_for(sampling, &run.set, dim, &pcfg, weights, trunc)
            };
            comm.set_phase(&format!("exchange{suffix}"));
            let next = engine.exchange_merge_by_splitters(
                exchange,
                &ExchangePayload {
                    set: &run.set,
                    lcps: run.lcps.as_deref().unwrap_or_default(),
                    origins: run.origins.as_deref(),
                    truncate: trunc,
                },
                &splitters,
                pcfg.duplicate_tie_break,
                Some(&format!("merge{suffix}")),
            );
            // The full strings never leave their PE under prefix
            // doubling; otherwise this level's input is released here.
            let prev = std::mem::replace(&mut run, next);
            run.local_store = prev.local_store.or(pd.then_some(prev.set));
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::SamplingPolicy;
    use crate::test_support::{cfg_run, check, merge_sort, pd, random_shards};
    use crate::Algorithm;
    use dss_net::runner::run_spmd;
    use rand::prelude::*;

    const GRID: LevelPlan = LevelPlan::Grid { rows: 0 };

    fn with(cfg: MergeSortConfig) -> MergeSort {
        MergeSort::with_config(cfg)
    }

    fn golomb() -> Option<PrefixDoublingConfig> {
        Some(PrefixDoublingConfig {
            golomb: true,
            ..PrefixDoublingConfig::default()
        })
    }

    // ---------------------------------------------------------------
    // flat, full strings (MS, MS-simple)
    // ---------------------------------------------------------------

    fn ms_simple() -> MergeSort {
        with(MergeSortConfig {
            codec: ExchangeCodec::Plain,
            ..MergeSortConfig::default()
        })
    }

    #[test]
    fn ms_sorts_various_pe_counts() {
        for p in [1usize, 2, 3, 4, 6] {
            check(p, random_shards(p, 70, p as u64), MergeSort::default());
        }
    }

    #[test]
    fn ms_simple_sorts() {
        for p in [2usize, 4] {
            check(p, random_shards(p, 60, 100 + p as u64), ms_simple());
        }
    }

    #[test]
    fn ms_with_char_sampling_sorts() {
        let sorter = with(MergeSortConfig {
            partition: PartitionConfig {
                policy: SamplingPolicy::Chars,
                ..PartitionConfig::default()
            },
            ..MergeSortConfig::default()
        });
        check(4, random_shards(4, 80, 7), sorter);
    }

    #[test]
    fn ms_with_delta_lcps_sorts() {
        let sorter = with(MergeSortConfig {
            codec: ExchangeCodec::LcpDelta,
            ..MergeSortConfig::default()
        });
        check(3, random_shards(3, 60, 8), sorter);
    }

    #[test]
    fn ms_with_central_sample_sort_sorts() {
        let sorter = with(MergeSortConfig {
            partition: PartitionConfig {
                central_sample_sort: true,
                ..PartitionConfig::default()
            },
            ..MergeSortConfig::default()
        });
        check(3, random_shards(3, 60, 9), sorter);
    }

    #[test]
    fn handles_duplicates_and_empties() {
        let mut shards = random_shards(4, 0, 10);
        shards[1] = vec![b"dup".to_vec(); 120];
        shards[3] = vec![b"dup".to_vec(); 40];
        check(4, shards, MergeSort::default());
    }

    #[test]
    fn output_lcps_cross_run_boundaries_correctly() {
        // Strings interleave across PEs so the merge must compute LCPs
        // between strings from different source runs.
        let shards = vec![
            vec![b"aaa1".to_vec(), b"aab1".to_vec(), b"zzz1".to_vec()],
            vec![b"aaa2".to_vec(), b"aab2".to_vec(), b"zzz2".to_vec()],
        ];
        check(2, shards, MergeSort::default());
    }

    #[test]
    fn ms_sends_fewer_bytes_than_ms_simple_on_high_lcp_input() {
        let run = |sorter: MergeSort| -> u64 {
            let res = run_spmd(2, cfg_run(), move |comm| {
                let mut set = StringSet::new();
                for i in 0..300u32 {
                    set.push(format!("very_long_common_prefix_block_{:04}", i).as_bytes());
                }
                let r = comm.rank() as u32;
                set.push(format!("tail{r}").as_bytes());
                let _ = sorter.sort(comm, set);
            });
            res.stats.total_bytes_sent()
        };
        let simple = run(ms_simple());
        let full = run(MergeSort::default());
        assert!(full < simple, "MS {full} should be < MS-simple {simple}");
    }

    // ---------------------------------------------------------------
    // flat, prefix doubling (PDMS, PDMS-Golomb)
    // ---------------------------------------------------------------

    #[test]
    fn pdms_sorts_various_pe_counts() {
        for p in [1usize, 2, 3, 4] {
            check(
                p,
                random_shards(p, 60, p as u64),
                merge_sort(LevelPlan::Flat, pd()),
            );
        }
    }

    #[test]
    fn pdms_golomb_sorts() {
        check(
            4,
            random_shards(4, 60, 44),
            merge_sort(LevelPlan::Flat, golomb()),
        );
    }

    #[test]
    fn pdms_with_dist_prefix_sampling_sorts() {
        let sorter = with(MergeSortConfig {
            prefix: pd(),
            partition: PartitionConfig {
                policy: SamplingPolicy::DistPrefix,
                ..PartitionConfig::default()
            },
            ..MergeSortConfig::default()
        });
        check(4, random_shards(4, 60, 45), sorter);
    }

    #[test]
    fn handles_duplicates_prefixes_and_empties() {
        let shards = vec![
            vec![b"dup".to_vec(); 30],
            vec![],
            {
                let mut v = vec![b"dup".to_vec(); 10];
                v.push(b"du".to_vec());
                v.push(b"d".to_vec());
                v.push(Vec::new());
                v
            },
            random_shards(1, 40, 46).remove(0),
        ];
        check(4, shards, merge_sort(LevelPlan::Flat, pd()));
    }

    #[test]
    fn transmits_only_prefixes_on_low_dn_input() {
        // Long strings with tiny distinguishing prefixes: the exchange
        // volume of PDMS must be a small fraction of MS's.
        let make_shards = |p: usize| -> Vec<Vec<Vec<u8>>> {
            (0..p)
                .map(|r| {
                    (0..100)
                        .map(|i| {
                            let mut s = format!("{:03}", r * 100 + i).into_bytes();
                            s.extend(std::iter::repeat_n(b'x', 300));
                            s
                        })
                        .collect()
                })
                .collect()
        };
        let shards = make_shards(4);
        check(4, shards.clone(), merge_sort(LevelPlan::Flat, pd()));
        let shards_ref = &shards;
        let exchange_bytes = |alg: Algorithm| -> u64 {
            let res = run_spmd(4, cfg_run(), move |comm| {
                let set = StringSet::from_iter_bytes(
                    shards_ref[comm.rank()].iter().map(|s| s.as_slice()),
                );
                let _ = alg.instance().sort(comm, set);
            });
            res.stats
                .phases
                .iter()
                .filter(|ph| ph.name == "exchange")
                .map(|ph| ph.total.bytes_sent)
                .sum()
        };
        let pdms = exchange_bytes(Algorithm::Pdms);
        let ms = exchange_bytes(Algorithm::Ms);
        assert!(
            pdms * 5 < ms,
            "PDMS exchange {pdms} should be ≪ MS exchange {ms}"
        );
    }

    // ---------------------------------------------------------------
    // two-level grid (MS2L)
    // ---------------------------------------------------------------

    #[test]
    fn ms2l_sorts_square_and_rectangular_grids() {
        // 4 = 2×2, 6 = 2×3 (non-square), 8 = 2×4, 9 = 3×3.
        for p in [4usize, 6, 8, 9] {
            check(p, random_shards(p, 60, p as u64), merge_sort(GRID, None));
        }
    }

    #[test]
    fn ms2l_falls_back_on_prime_and_tiny_pe_counts() {
        for p in [1usize, 2, 3, 5, 7] {
            check(
                p,
                random_shards(p, 50, 40 + p as u64),
                merge_sort(GRID, None),
            );
        }
    }

    #[test]
    fn ms2l_with_explicit_rows_and_delta_lcps() {
        let sorter = with(MergeSortConfig {
            plan: LevelPlan::Grid { rows: 2 },
            codec: ExchangeCodec::LcpDelta,
            ..MergeSortConfig::default()
        });
        check(6, random_shards(6, 50, 77), sorter);
    }

    #[test]
    fn ms2l_rows_zero_stays_auto() {
        // rows: 0 is the documented auto sentinel: picks the near-square
        // grid for composite p and runs flat (without panicking) for
        // prime p.
        let auto = merge_sort(LevelPlan::Grid { rows: 0 }, None);
        check(6, random_shards(6, 40, 78), auto);
        check(5, random_shards(5, 40, 79), auto);
    }

    #[test]
    #[should_panic(expected = "LevelPlan::Grid rows = 4 does not tile p = 6")]
    fn ms2l_panics_on_rows_not_dividing_p() {
        let bad = merge_sort(LevelPlan::Grid { rows: 4 }, None);
        check(6, random_shards(6, 10, 80), bad);
    }

    #[test]
    #[should_panic(expected = "LevelPlan::Grid rows = 1 does not tile p = 6")]
    fn ms2l_panics_on_degenerate_rows() {
        // rows: 1 would be a 1×p "grid", i.e. no grid at all — loud
        // failure beats silently renaming single-level MS.
        let bad = merge_sort(LevelPlan::Grid { rows: 1 }, None);
        check(6, random_shards(6, 10, 81), bad);
    }

    #[test]
    fn ms2l_handles_duplicates_and_empty_shards() {
        let mut shards = random_shards(6, 0, 90);
        shards[1] = vec![b"dup".to_vec(); 150];
        shards[4] = vec![b"dup".to_vec(); 30];
        check(6, shards, merge_sort(GRID, None));
    }

    /// Runs `alg` on `p` PEs over 40 random strings per PE (seeded per
    /// rank from `seed`) and returns the run's NetStats.
    fn random_run_stats(p: usize, seed: u64, alg: Algorithm) -> dss_net::NetStats {
        run_spmd(p, cfg_run(), move |comm| {
            let mut rng = StdRng::seed_from_u64(seed + comm.rank() as u64);
            let mut set = StringSet::new();
            for _ in 0..40 {
                let len = rng.gen_range(0..10);
                let s: Vec<u8> = (0..len).map(|_| rng.gen_range(b'a'..=b'f')).collect();
                set.push(&s);
            }
            let _ = alg.instance().sort(comm, set);
        })
        .stats
    }

    /// Σ of `pick` over the phases named in `phases`.
    fn sum_in(
        stats: &dss_net::NetStats,
        pick: &dyn Fn(&dss_net::PhaseSummary) -> u64,
        phases: &[String],
    ) -> u64 {
        stats
            .phases
            .iter()
            .filter(|ph| phases.contains(&ph.name))
            .map(pick)
            .sum()
    }

    /// The headline claim: on a 4×4 grid, MS2L's exchange phases contact
    /// at most (r − 1) + (c − 1) partners per PE while single-level MS
    /// contacts p − 1 — measured exactly via the per-phase message
    /// counters.
    #[test]
    fn grid_exchange_cuts_message_partners_to_r_plus_c() {
        let p = 16usize; // 4×4
        let (r, c) = dss_net::grid_dims(p).expect("16 has a grid");
        assert_eq!((r, c), (4, 4));
        let msgs = |ph: &dss_net::PhaseSummary| ph.max.msgs_sent;

        let two_level = random_run_stats(p, 1000, Algorithm::Ms2l);
        let partners_2l = sum_in(
            &two_level,
            &msgs,
            &["exchange_row".into(), "exchange_col".into()],
        );
        assert_eq!(
            partners_2l,
            (r as u64 - 1) + (c as u64 - 1),
            "two-level exchange partners"
        );
        assert!(partners_2l <= (r + c) as u64 && r + c < p);

        let single = random_run_stats(p, 1000, Algorithm::Ms);
        let partners_1l = sum_in(&single, &msgs, &["exchange".into()]);
        assert_eq!(partners_1l, p as u64 - 1, "single-level exchange partners");
        assert!(partners_2l < partners_1l);
    }

    // ---------------------------------------------------------------
    // multi-level grid (MSML)
    // ---------------------------------------------------------------

    fn multi(levels: usize, max_level_size: usize) -> LevelPlan {
        LevelPlan::Multi {
            levels,
            max_level_size,
        }
    }

    #[test]
    fn msml_sorts_two_and_three_level_grids() {
        // 4 = 2×2, 8 = 2×2×2, 12 = 3×2×2, 16 = 2×2×2×2.
        for p in [4usize, 8, 12, 16] {
            let sorter = merge_sort(LevelPlan::multi_from_env(), None);
            check(p, random_shards(p, 50, p as u64), sorter);
        }
    }

    #[test]
    fn msml_falls_back_on_prime_and_tiny_pe_counts() {
        for p in [1usize, 2, 3, 5, 7] {
            let sorter = merge_sort(LevelPlan::multi_from_env(), None);
            check(p, random_shards(p, 40, 40 + p as u64), sorter);
        }
    }

    #[test]
    fn msml_with_explicit_levels_and_delta_lcps() {
        let sorter = with(MergeSortConfig {
            plan: multi(2, 0),
            codec: ExchangeCodec::LcpDelta,
            ..MergeSortConfig::default()
        });
        check(8, random_shards(8, 50, 77), sorter);
        // levels: 1 is the explicit single-level round.
        check(4, random_shards(4, 40, 78), merge_sort(multi(1, 0), None));
    }

    #[test]
    fn msml_with_max_level_size_cap() {
        // p = 16 capped at 4 ⇒ dims [4, 4] (a two-level grid).
        let sorter = merge_sort(multi(msml_levels_from_env(), 4), None);
        check(16, random_shards(16, 40, 79), sorter);
    }

    #[test]
    fn msml_handles_duplicates_and_empty_shards() {
        let mut shards = random_shards(8, 0, 90);
        shards[1] = vec![b"dup".to_vec(); 150];
        shards[6] = vec![b"dup".to_vec(); 30];
        check(8, shards, merge_sort(LevelPlan::multi_from_env(), None));
    }

    #[test]
    fn msml_handles_all_empty_input() {
        let sorter = merge_sort(LevelPlan::multi_from_env(), None);
        check(8, random_shards(8, 0, 91), sorter);
    }

    #[test]
    #[should_panic(expected = "DSS_MSML_LEVELS = 4 cannot tile p = 8")]
    fn msml_panics_on_untileable_level_count() {
        // 8 = 2·2·2 has only three prime factors; levels: 4 must fail
        // loudly, not silently fall back.
        check(8, random_shards(8, 10, 92), merge_sort(multi(4, 0), None));
    }

    #[test]
    fn parse_msml_levels_accepts_auto_and_counts() {
        assert_eq!(parse_msml_levels(None), 0);
        assert_eq!(parse_msml_levels(Some("")), 0);
        assert_eq!(parse_msml_levels(Some("auto")), 0);
        assert_eq!(parse_msml_levels(Some(" auto ")), 0);
        assert_eq!(parse_msml_levels(Some("1")), 1);
        assert_eq!(parse_msml_levels(Some("3")), 3);
    }

    #[test]
    #[should_panic(expected = "got '0'")]
    fn parse_msml_levels_rejects_zero() {
        parse_msml_levels(Some("0"));
    }

    #[test]
    #[should_panic(expected = "got 'three'")]
    fn parse_msml_levels_rejects_garbage() {
        parse_msml_levels(Some("three"));
    }

    /// The headline claim: on the 2×2×2 grid of p = 8 the exchange
    /// phases contact Σ(dᵢ−1) = 3 partners per PE (vs 7 for MS), and
    /// per-group sampling moves strictly fewer splitter-phase bytes
    /// than MS2L's world-wide sample sort at the same p.
    #[test]
    fn three_level_grid_pins_partner_count_and_splitter_bytes() {
        multi_level_pin(8, &[2, 2, 2]);
    }

    /// Same pin on the non-uniform 3-level factorization 12 = 3×2×2.
    #[test]
    fn three_level_pin_p12() {
        multi_level_pin(12, &[3, 2, 2]);
    }

    /// Same pin on 27 = 3×3×3: 6 partners per PE vs 26 for MS.
    #[test]
    fn three_level_pin_p27() {
        multi_level_pin(27, &[3, 3, 3]);
    }

    fn multi_level_pin(p: usize, expect_dims: &[usize]) {
        assert_eq!(
            dss_net::multi_grid_dims(p, 0).as_deref(),
            Some(expect_dims),
            "expected factorization"
        );
        let levels = expect_dims.len();
        let msgs = |ph: &dss_net::PhaseSummary| ph.max.msgs_sent;
        let bytes = |ph: &dss_net::PhaseSummary| ph.total.bytes_sent;

        // Per-PE exchange partners == Σ(dᵢ − 1), measured via the
        // per-phase max message counters.
        let msml = random_run_stats(p, 1000, Algorithm::Msml);
        let exchange_phases: Vec<String> = (0..levels).map(|i| format!("exchange_l{i}")).collect();
        let partners = sum_in(&msml, &msgs, &exchange_phases);
        let expect_partners: u64 = expect_dims.iter().map(|&d| d as u64 - 1).sum();
        assert_eq!(partners, expect_partners, "multi-level exchange partners");

        let single = random_run_stats(p, 1000, Algorithm::Ms);
        let partners_1l = sum_in(&single, &msgs, &["exchange".into()]);
        assert_eq!(partners_1l, p as u64 - 1, "single-level exchange partners");
        assert!(partners < partners_1l);

        // Splitter-phase traffic: per-group gathered samples must move
        // strictly fewer bytes than MS2L's world-wide sample sort.
        let ms2l = random_run_stats(p, 1000, Algorithm::Ms2l);
        let partition_phases: Vec<String> =
            (0..levels).map(|i| format!("partition_l{i}")).collect();
        let msml_bytes = sum_in(&msml, &bytes, &partition_phases);
        let ms2l_bytes = sum_in(
            &ms2l,
            &bytes,
            &["partition_row".into(), "partition_col".into()],
        );
        assert!(msml_bytes > 0, "splitter phases must move something");
        assert!(
            msml_bytes < ms2l_bytes,
            "per-group sampling ({msml_bytes} B) must beat MS2L's world-wide \
             sampling ({ms2l_bytes} B) at p={p}"
        );
    }

    // ---------------------------------------------------------------
    // grids with prefix doubling (PD-MS2L, PD-MSML)
    // ---------------------------------------------------------------

    #[test]
    fn pd_ms2l_sorts_square_and_rectangular_grids() {
        // 4 = 2×2, 6 = 2×3, 8 = 2×4, 9 = 3×3.
        for p in [4usize, 6, 8, 9] {
            check(p, random_shards(p, 50, p as u64), merge_sort(GRID, pd()));
        }
    }

    #[test]
    fn pd_msml_sorts_two_and_three_level_grids() {
        // 4 = 2×2, 8 = 2×2×2, 12 = 3×2×2, 16 = 2×2×2×2.
        for p in [4usize, 8, 12, 16] {
            let sorter = merge_sort(LevelPlan::multi_from_env(), pd());
            check(p, random_shards(p, 50, 20 + p as u64), sorter);
        }
    }

    #[test]
    fn pd_grid_variants_fall_back_on_prime_and_tiny_pe_counts() {
        for p in [1usize, 2, 3, 5, 7] {
            check(
                p,
                random_shards(p, 40, 40 + p as u64),
                merge_sort(GRID, pd()),
            );
            let sorter = merge_sort(LevelPlan::multi_from_env(), pd());
            check(p, random_shards(p, 40, 60 + p as u64), sorter);
        }
    }

    #[test]
    fn pd_ms2l_with_golomb_delta_and_auto_codec() {
        let golomb_delta = with(MergeSortConfig {
            plan: GRID,
            prefix: golomb(),
            codec: ExchangeCodec::LcpDelta,
            ..MergeSortConfig::default()
        });
        check(6, random_shards(6, 50, 77), golomb_delta);
        let auto = with(MergeSortConfig {
            plan: GRID,
            prefix: pd(),
            codec: ExchangeCodec::Auto,
            ..MergeSortConfig::default()
        });
        check(4, random_shards(4, 50, 78), auto);
    }

    #[test]
    fn pd_msml_with_explicit_levels_and_auto_codec() {
        let sorter = with(MergeSortConfig {
            plan: multi(3, 0),
            prefix: pd(),
            codec: ExchangeCodec::Auto,
            ..MergeSortConfig::default()
        });
        check(8, random_shards(8, 50, 79), sorter);
        // levels: 1 is the explicit flat-PDMS round.
        check(4, random_shards(4, 40, 80), merge_sort(multi(1, 0), pd()));
    }

    #[test]
    #[should_panic(expected = "LevelPlan::Grid rows = 4 does not tile p = 6")]
    fn pd_ms2l_panics_on_rows_not_dividing_p() {
        let bad = merge_sort(LevelPlan::Grid { rows: 4 }, pd());
        check(6, random_shards(6, 10, 81), bad);
    }

    #[test]
    #[should_panic(expected = "LevelPlan::Multi levels / DSS_MSML_LEVELS = 4 cannot tile p = 8")]
    fn pd_msml_panics_on_untileable_level_count() {
        check(8, random_shards(8, 10, 82), merge_sort(multi(4, 0), pd()));
    }

    #[test]
    fn pd_grid_variants_handle_duplicates_prefixes_and_empty_shards() {
        let mut shards = random_shards(8, 0, 90);
        shards[1] = vec![b"dup".to_vec(); 120];
        shards[5] = vec![b"dup".to_vec(); 30];
        shards[6] = vec![b"du".to_vec(), b"d".to_vec(), Vec::new()];
        check(8, shards.clone(), merge_sort(GRID, pd()));
        check(8, shards, merge_sort(LevelPlan::multi_from_env(), pd()));
    }

    #[test]
    fn pd_grid_variants_handle_all_empty_input() {
        check(8, random_shards(8, 0, 91), merge_sort(GRID, pd()));
        let sorter = merge_sort(LevelPlan::multi_from_env(), pd());
        check(8, random_shards(8, 0, 92), sorter);
    }

    /// Long-LCP workload: a 40-char shared prefix, a short unique id and
    /// a long unique random tail. DIST ≈ 45 ≪ len ≈ 245, and the tails
    /// are incompressible for the LCP codec — the regime where prefix
    /// truncation must beat LCP compression outright.
    fn long_lcp_shards(p: usize, n: usize) -> Vec<Vec<Vec<u8>>> {
        (0..p)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(7000 + r as u64);
                (0..n)
                    .map(|i| {
                        let mut s = vec![b'q'; 40];
                        s.extend(format!("{:05}", r * n + i).into_bytes());
                        s.extend((0..200).map(|_| rng.gen_range(b'a'..=b'z')));
                        s
                    })
                    .collect()
            })
            .collect()
    }

    /// Dup-heavy workload: a majority of short exact duplicates (which
    /// ship whole either way — equal strings have no distinguishing
    /// prefix) plus a minority of long strings whose DIST is a few
    /// characters. The savings come entirely from truncating the latter.
    fn dup_heavy_shards(p: usize, n: usize) -> Vec<Vec<Vec<u8>>> {
        (0..p)
            .map(|r| {
                (0..n)
                    .map(|i| {
                        if i % 3 != 0 {
                            format!("dup{:02}", i % 8).into_bytes()
                        } else {
                            let mut s = format!("{:05}", r * n + i).into_bytes();
                            s.extend(std::iter::repeat_n(b'x', 180));
                            s
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// On both workloads and p ∈ {8, 16, 27}, the PD grid variant moves
    /// strictly fewer exchange-phase bytes than its non-PD counterpart
    /// while contacting exactly the same number of exchange partners —
    /// truncation cuts volume, never topology.
    fn wire_reduction_pin(
        p: usize,
        pd_alg: Algorithm,
        base_alg: Algorithm,
        shards: Vec<Vec<Vec<u8>>>,
    ) {
        let shards_ref = &shards;
        let run = |alg: Algorithm| {
            run_spmd(p, cfg_run(), move |comm| {
                let set = StringSet::from_iter_bytes(
                    shards_ref[comm.rank()].iter().map(|s| s.as_slice()),
                );
                let _ = alg.instance().sort(comm, set);
            })
            .stats
        };
        let exchange_phases = |stats: &dss_net::NetStats| -> (u64, u64) {
            stats
                .phases
                .iter()
                .filter(|ph| ph.name.starts_with("exchange"))
                .map(|ph| (ph.total.bytes_sent, ph.max.msgs_sent))
                .fold((0, 0), |(b, m), (pb, pm)| (b + pb, m + pm))
        };
        let (pd_bytes, pd_partners) = exchange_phases(&run(pd_alg));
        let (base_bytes, base_partners) = exchange_phases(&run(base_alg));
        assert!(pd_bytes > 0, "pd exchange must move something");
        assert!(
            pd_bytes < base_bytes,
            "{:?} exchange ({pd_bytes} B) must be strictly below {:?} \
             ({base_bytes} B) at p={p}",
            pd_alg,
            base_alg
        );
        assert_eq!(
            pd_partners, base_partners,
            "prefix truncation must not change the exchange topology at p={p}"
        );
    }

    #[test]
    fn pd_ms2l_ships_fewer_exchange_bytes_than_ms2l() {
        for p in [8usize, 16, 27] {
            wire_reduction_pin(
                p,
                Algorithm::PdMs2l,
                Algorithm::Ms2l,
                long_lcp_shards(p, 30),
            );
            wire_reduction_pin(
                p,
                Algorithm::PdMs2l,
                Algorithm::Ms2l,
                dup_heavy_shards(p, 30),
            );
        }
    }

    #[test]
    fn pd_msml_ships_fewer_exchange_bytes_than_msml() {
        for p in [8usize, 16, 27] {
            wire_reduction_pin(
                p,
                Algorithm::PdMsml,
                Algorithm::Msml,
                long_lcp_shards(p, 30),
            );
            wire_reduction_pin(
                p,
                Algorithm::PdMsml,
                Algorithm::Msml,
                dup_heavy_shards(p, 30),
            );
        }
    }

    /// The partner-count formulas themselves: (r−1)+(c−1) for PD-MS2L,
    /// Σ(dᵢ−1) for PD-MSML — identical to the non-PD grids.
    #[test]
    fn pd_grids_keep_grid_partner_counts() {
        let p = 16usize;
        let partners = |stats: &dss_net::NetStats| -> u64 {
            stats
                .phases
                .iter()
                .filter(|ph| ph.name.starts_with("exchange"))
                .map(|ph| ph.max.msgs_sent)
                .sum()
        };
        // 16 = 4×4 ⇒ 3 + 3 partners; 16 = 2×2×2×2 ⇒ 4 partners.
        let (r, c) = dss_net::grid_dims(p).expect("16 has a grid");
        assert_eq!(
            partners(&random_run_stats(p, 3000, Algorithm::PdMs2l)),
            (r as u64 - 1) + (c as u64 - 1)
        );
        let dims = dss_net::multi_grid_dims(p, 0).expect("16 has a multi-grid");
        let expect: u64 = dims.iter().map(|&d| d as u64 - 1).sum();
        assert_eq!(
            partners(&random_run_stats(p, 3000, Algorithm::PdMsml)),
            expect
        );
    }
}
