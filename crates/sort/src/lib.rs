//! # dss-sort — distributed string sorting (the paper's contribution)
//!
//! The six algorithms evaluated in §VII plus the multi-level extensions,
//! over the [`dss_net`] runtime:
//!
//! | algorithm | preset | paper | idea |
//! |---|---|---|---|
//! | `hQuick` | [`hquick`] | §IV | hypercube atomic quicksort adapted to strings: polylog latency, moves all data log p times |
//! | `FKmerge` | [`fkmerge`] | §II-C, \[15\] | Fischer–Kurpicz mergesort: deterministic sampling, centralized sample sort, plain loser tree |
//! | `MS-simple` | [`merge_sort`]: `Flat`, `Plain` codec | §V | distributed string mergesort without LCP optimizations |
//! | `MS` | [`merge_sort`]: `Flat` | §V | + LCP compression on the wire and LCP loser-tree merge |
//! | `PDMS` | [`merge_sort`]: `Flat` + prefix doubling | §VI | + prefix doubling: transmit only (approximate) distinguishing prefixes |
//! | `PDMS-Golomb` | [`merge_sort`]: `Flat` + Golomb prefix doubling | §VI-A | + Golomb-coded fingerprint traffic in the duplicate detection |
//! | `MS2L` | [`merge_sort`]: `Grid` | Kurpicz, Mehnert, Sanders, Schimek 2024 | two-level grid exchange: row then column over an r×c grid, `O(r + c)` partners per PE instead of `Θ(p)` |
//! | `MSML` | [`merge_sort`]: `Multi` | Kurpicz, Mehnert, Sanders, Schimek 2024 | recursive ℓ-level grid exchange for `p = d₁·…·dₗ` with per-group splitter sampling: `Σ(dᵢ − 1)` partners per PE |
//! | `PD-MS2L` | [`merge_sort`]: `Grid` + prefix doubling | §VI × the 2024 follow-up | distinguishing prefixes over `(r − 1) + (c − 1)` partners, permutation output |
//! | `PD-MSML` | [`merge_sort`]: `Multi` + prefix doubling | §VI × the 2024 follow-up | distinguishing prefixes over `Σ(dᵢ − 1)` partners, permutation output |
//!
//! The eight merge-sort members are one driver, [`MergeSort`], configured
//! by a [`LevelPlan`] and an optional prefix-doubling front;
//! [`Algorithm::instance_with`] holds the presets.
//!
//! Supporting modules: [`partition`] (string- and character-based regular
//! sampling, Theorems 2 and 3; splitter determination), [`exchange`] (the
//! [`StringAllToAll`] engine — the single codec-aware all-to-all all
//! algorithms route through), [`checker`] (distributed result
//! validation), [`output`] (result types).
//!
//! ## Example
//!
//! ```
//! use dss_net::runner::{run_spmd, RunConfig};
//! use dss_sort::{Algorithm, DistSorter};
//! use dss_strkit::StringSet;
//!
//! let res = run_spmd(4, RunConfig::default(), |comm| {
//!     let shard = match comm.rank() {
//!         0 => StringSet::from_strs(&["alpha", "order", "alps"]),
//!         1 => StringSet::from_strs(&["algae", "sorter", "snow"]),
//!         2 => StringSet::from_strs(&["algo", "sorbet", "sorted"]),
//!         _ => StringSet::from_strs(&["orange", "soul", "organ"]),
//!     };
//!     let sorter = Algorithm::Ms.instance();
//!     let out = sorter.sort(comm, shard);
//!     out.set.to_vecs()
//! });
//! // Concatenating the per-PE outputs yields the globally sorted set.
//! let all: Vec<Vec<u8>> = res.values.into_iter().flatten().collect();
//! assert!(all.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(all.len(), 12);
//! ```

pub mod checker;
pub mod exchange;
pub mod fkmerge;
pub mod hquick;
pub mod merge_sort;
pub mod output;
pub mod partition;
#[cfg(test)]
mod test_support;

pub use exchange::{
    parse_exchange_mode, ExchangeCodec, ExchangeMode, ExchangePayload, StringAllToAll,
};
pub use fkmerge::FkMerge;
pub use hquick::HQuick;
pub use merge_sort::{parse_msml_levels, LevelPlan, MergeSort, MergeSortConfig};
pub use output::SortedRun;
pub use partition::{PartitionConfig, SamplingPolicy};

use dss_dedup::prefix_doubling::PrefixDoublingConfig;
use dss_net::Comm;
use dss_strkit::StringSet;

/// Ingestion check of every sorter: byte 0 is the strings' implicit
/// end-of-string sentinel, so an input string containing it would sort
/// wrongly. Panics naming the PE and the local string index; the
/// runtime's poison pill then ends the other PEs' run as well.
pub(crate) fn reject_sentinel_bytes(comm: &Comm, set: &StringSet) {
    // One scan of the whole arena; only a hit pays the per-string search.
    if !set.arena().contains(&0) {
        return;
    }
    if let Some(i) = (0..set.len()).find(|&i| set.get(i).contains(&0)) {
        panic!(
            "PE {}: input string {i} contains byte 0, the reserved end-of-string sentinel",
            comm.rank()
        );
    }
}

/// A distributed string sorter: every PE calls [`DistSorter::sort`] with
/// its local shard; afterwards PE i's output precedes PE i+1's and is
/// locally sorted.
pub trait DistSorter: Send + Sync {
    /// Algorithm label (as used in the paper's plots).
    fn name(&self) -> &'static str;
    /// Collective sort. Consumes the local shard.
    fn sort(&self, comm: &Comm, input: StringSet) -> SortedRun;
}

/// The named algorithm set of the evaluation (§VII-C) plus the multi-level
/// extensions, for harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    FkMerge,
    HQuick,
    MsSimple,
    Ms,
    PdmsGolomb,
    Pdms,
    Ms2l,
    Msml,
    PdMs2l,
    PdMsml,
}

impl Algorithm {
    /// The six algorithms of the paper's evaluation, in its plot order.
    pub fn all_paper() -> [Algorithm; 6] {
        [
            Algorithm::FkMerge,
            Algorithm::HQuick,
            Algorithm::MsSimple,
            Algorithm::Ms,
            Algorithm::PdmsGolomb,
            Algorithm::Pdms,
        ]
    }

    /// Every implemented algorithm: the paper set plus the multi-level
    /// extensions MS2L and MSML and their prefix-doubling composites
    /// PD-MS2L and PD-MSML.
    pub fn all_extended() -> [Algorithm; 10] {
        [
            Algorithm::FkMerge,
            Algorithm::HQuick,
            Algorithm::MsSimple,
            Algorithm::Ms,
            Algorithm::PdmsGolomb,
            Algorithm::Pdms,
            Algorithm::Ms2l,
            Algorithm::Msml,
            Algorithm::PdMs2l,
            Algorithm::PdMsml,
        ]
    }

    /// Instantiates the sorter with its paper-default configuration (the
    /// exchange mode follows the `DSS_EXCHANGE_MODE` knob, see
    /// [`ExchangeMode::from_env`]).
    pub fn instance(&self) -> Box<dyn DistSorter> {
        self.instance_with_mode(ExchangeMode::default())
    }

    /// Instantiates the sorter with an explicit [`ExchangeMode`],
    /// overriding the environment knob — the handle harnesses use to
    /// compare the blocking and pipelined paths inside one process.
    /// Threads stay at the `DSS_THREADS` default.
    pub fn instance_with_mode(&self, mode: ExchangeMode) -> Box<dyn DistSorter> {
        self.instance_with(mode, dss_strkit::sort::threads_from_env())
    }

    /// Instantiates the sorter with an explicit [`ExchangeMode`] **and**
    /// shared-memory thread count, overriding both environment knobs —
    /// the handle harnesses use to compare configurations inside one
    /// process without env-var races.
    pub fn instance_with(&self, mode: ExchangeMode, threads: usize) -> Box<dyn DistSorter> {
        assert!(threads >= 1, "thread count must be positive, got 0");
        let pd = Some(PrefixDoublingConfig::default());
        let golomb = Some(PrefixDoublingConfig {
            golomb: true,
            ..PrefixDoublingConfig::default()
        });
        let grid = LevelPlan::Grid { rows: 0 };
        let lcp = ExchangeCodec::LcpCompressed;
        let (plan, prefix, codec) = match self {
            Algorithm::FkMerge => return Box::new(FkMerge { mode, threads }),
            Algorithm::HQuick => return Box::new(HQuick { mode, threads }),
            Algorithm::MsSimple => (LevelPlan::Flat, None, ExchangeCodec::Plain),
            Algorithm::Ms => (LevelPlan::Flat, None, lcp),
            Algorithm::PdmsGolomb => (LevelPlan::Flat, golomb, lcp),
            Algorithm::Pdms => (LevelPlan::Flat, pd, lcp),
            Algorithm::Ms2l => (grid, None, lcp),
            Algorithm::Msml => (LevelPlan::multi_from_env(), None, lcp),
            Algorithm::PdMs2l => (grid, pd, lcp),
            Algorithm::PdMsml => (LevelPlan::multi_from_env(), pd, lcp),
        };
        Box::new(MergeSort::with_config(MergeSortConfig {
            plan,
            prefix,
            codec,
            mode,
            threads,
            partition: PartitionConfig::default(),
        }))
    }

    /// Plot label.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::FkMerge => "FKmerge",
            Algorithm::HQuick => "hQuick",
            Algorithm::MsSimple => "MS-simple",
            Algorithm::Ms => "MS",
            Algorithm::PdmsGolomb => "PDMS-Golomb",
            Algorithm::Pdms => "PDMS",
            Algorithm::Ms2l => "MS2L",
            Algorithm::Msml => "MSML",
            Algorithm::PdMs2l => "PD-MS2L",
            Algorithm::PdMsml => "PD-MSML",
        }
    }
}
