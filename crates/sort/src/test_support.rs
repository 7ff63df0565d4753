//! Helpers shared by the merge-sort unit tests: the run configuration,
//! the oracle check and the random shard generator.

use crate::merge_sort::{LevelPlan, MergeSort, MergeSortConfig};
use crate::output::origin_parts;
use crate::DistSorter;
use dss_dedup::prefix_doubling::PrefixDoublingConfig;
use dss_net::runner::{run_spmd, RunConfig};
use dss_strkit::StringSet;
use rand::prelude::*;
use std::time::Duration;

pub(crate) fn cfg_run() -> RunConfig {
    RunConfig {
        recv_timeout: Duration::from_secs(120),
        ..RunConfig::default()
    }
}

/// The merge sort with `plan` and `prefix`, everything else default.
pub(crate) fn merge_sort(plan: LevelPlan, prefix: Option<PrefixDoublingConfig>) -> MergeSort {
    MergeSort::with_config(MergeSortConfig {
        plan,
        prefix,
        ..MergeSortConfig::default()
    })
}

/// Default Step 1+ε parameters (PDMS).
pub(crate) fn pd() -> Option<PrefixDoublingConfig> {
    Some(PrefixDoublingConfig::default())
}

/// Sorts `shards` on `p` PEs and checks the result against the sorted
/// global input; output LCP arrays must be exact.
///
/// Without prefix doubling the concatenated output must equal the
/// oracle. With it, the output prefixes must be sorted, every prefix a
/// prefix of the full string its origin tag names, and the full strings
/// reconstructed through origin tags and local stores must equal the
/// oracle — the permutation contract.
pub(crate) fn check(p: usize, shards: Vec<Vec<Vec<u8>>>, sorter: MergeSort) {
    let mut expect: Vec<Vec<u8>> = shards.iter().flatten().cloned().collect();
    expect.sort();
    let pd = sorter.cfg.prefix.is_some();
    let shards_ref = &shards;
    let res = run_spmd(p, cfg_run(), move |comm| {
        let set = StringSet::from_iter_bytes(shards_ref[comm.rank()].iter().map(|s| s.as_slice()));
        let out = sorter.sort(comm, set);
        if let Some(l) = &out.lcps {
            dss_strkit::lcp::verify_lcp_array(&out.set, l).expect("output lcps");
        }
        if !pd {
            return (out.set.to_vecs(), Vec::new(), Vec::new());
        }
        assert!(dss_strkit::checker::is_sorted(&out.set), "prefixes sorted");
        (
            out.set.to_vecs(),
            out.origins.expect("prefix doubling reports origins"),
            out.local_store
                .expect("prefix doubling keeps the local store")
                .to_vecs(),
        )
    });
    if !pd {
        let got: Vec<Vec<u8>> = res.values.into_iter().flat_map(|(v, _, _)| v).collect();
        assert_eq!(got, expect, "p={p}");
        return;
    }
    let stores: Vec<&Vec<Vec<u8>>> = res.values.iter().map(|(_, _, s)| s).collect();
    let mut reconstructed: Vec<Vec<u8>> = Vec::new();
    for (prefixes, origins, _) in &res.values {
        assert_eq!(prefixes.len(), origins.len());
        for (pref, &tag) in prefixes.iter().zip(origins) {
            let (pe, idx) = origin_parts(tag);
            let full = &stores[pe][idx];
            assert!(
                full.starts_with(pref),
                "prefix {:?} not a prefix of its origin {:?}",
                String::from_utf8_lossy(pref),
                String::from_utf8_lossy(full)
            );
            reconstructed.push(full.clone());
        }
    }
    assert_eq!(reconstructed, expect, "origin permutation sorts the input");
}

/// `p` shards of `n` random strings of length `0..14` over `a..=e`.
pub(crate) fn random_shards(p: usize, n: usize, seed: u64) -> Vec<Vec<Vec<u8>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..p)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let len = rng.gen_range(0..14);
                    (0..len).map(|_| rng.gen_range(b'a'..=b'e')).collect()
                })
                .collect()
        })
        .collect()
}
