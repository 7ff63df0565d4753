//! # distributed-string-sorting
//!
//! A Rust reproduction of **"Communication-Efficient String Sorting"**
//! (Bingmann, Sanders, Schimek; IPDPS 2020, arXiv:2001.08516): the MS and
//! PDMS distributed string sorters, the hQuick and FKmerge baselines, and
//! every substrate they need — an SPMD message-passing runtime with exact
//! communication accounting, sequential LCP string sorting, LCP-aware
//! multiway merging, Golomb-coded distributed duplicate detection, and
//! the paper's workload generators.
//!
//! See `README.md` for a tour of the system and its measured results.
//!
//! ## Quick start
//!
//! ```
//! use distributed_string_sorting::prelude::*;
//!
//! // Sort strings scattered over 4 simulated PEs with PDMS.
//! let result = run_spmd(4, RunConfig::default(), |comm| {
//!     let shard = StringSet::from_strs(match comm.rank() {
//!         0 => &["tokyo", "lima", "cairo"],
//!         1 => &["paris", "accra", "quito"],
//!         2 => &["delhi", "seoul", "hanoi"],
//!         _ => &["oslo", "berlin", "dakar"],
//!     });
//!     let out = Algorithm::Pdms.instance().sort(comm, shard);
//!     out.set.to_vecs()
//! });
//! let all: Vec<Vec<u8>> = result.values.into_iter().flatten().collect();
//! assert!(all.windows(2).all(|w| w[0] <= w[1]));
//! println!("bytes on the wire: {}", result.stats.total_bytes_sent());
//! ```

pub use dss_codec as codec;
pub use dss_dedup as dedup;
pub use dss_gen as gen;
pub use dss_net as net;
pub use dss_sort as sort;
pub use dss_strkit as strkit;

/// The commonly needed surface in one import.
pub mod prelude {
    pub use dss_gen::Workload;
    pub use dss_net::runner::{run_spmd, RunConfig, SpmdResult};
    pub use dss_net::{Comm, CostModel, NetStats};
    pub use dss_sort::checker::check_distributed_sort;
    pub use dss_sort::{
        Algorithm, DistSorter, ExchangeCodec, ExchangeMode, ExchangePayload, FkMerge, HQuick,
        LevelPlan, MergeSort, MergeSortConfig, SortedRun, StringAllToAll,
    };
    pub use dss_strkit::sort::sort_with_lcp;
    pub use dss_strkit::StringSet;
}
