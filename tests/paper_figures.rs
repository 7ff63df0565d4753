//! Exact reproduction of the paper's worked example (Figures 2 and 3):
//! the twelve strings alpha…organ on three PEs, with every published
//! intermediate value asserted. The `paper_walkthrough` example prints
//! the same states; this test keeps them pinned in CI.

use distributed_string_sorting::dedup::prefix_doubling::{
    approx_dist_prefixes, PrefixDoublingConfig,
};
use distributed_string_sorting::prelude::*;
use std::collections::HashMap;

const PE_INPUTS: [[&str; 4]; 3] = [
    ["alpha", "order", "alps", "algae"],
    ["sorter", "snow", "algo", "sorbet"],
    ["sorted", "orange", "soul", "organ"],
];

#[test]
fn figure2_step1_local_sort_and_lcps() {
    let expected_sorted: [&[&str]; 3] = [
        &["algae", "alpha", "alps", "order"],
        &["algo", "snow", "sorbet", "sorter"],
        &["orange", "organ", "sorted", "soul"],
    ];
    let expected_lcps: [&[u32]; 3] = [&[0, 2, 3, 0], &[0, 0, 1, 3], &[0, 2, 0, 2]];
    for pe in 0..3 {
        let mut set = StringSet::from_strs(&PE_INPUTS[pe]);
        let (lcps, _) = sort_with_lcp(&mut set);
        let got: Vec<&str> = set
            .iter()
            .map(|s| std::str::from_utf8(s).expect("ascii"))
            .map(|s| Box::leak(s.to_string().into_boxed_str()) as &str)
            .collect();
        assert_eq!(got, expected_sorted[pe], "PE{}", pe + 1);
        assert_eq!(lcps.as_slice(), expected_lcps[pe], "PE{}", pe + 1);
    }
}

#[test]
fn figure2_step2_samples_and_splitters() {
    // v = 1: each PE samples its ω·1−1 = 1st (0-based) sorted string:
    // alpha, snow, organ; sorted sample {alpha, organ, snow} yields
    // splitters f1 = alpha, f2 = organ.
    use distributed_string_sorting::sort::partition::{partition, PartitionConfig, SamplingPolicy};
    let result = run_spmd(3, RunConfig::default(), |comm| {
        let mut set = StringSet::from_strs(&PE_INPUTS[comm.rank()]);
        let (_, _) = sort_with_lcp(&mut set);
        let cfg = PartitionConfig {
            policy: SamplingPolicy::Strings,
            oversampling: 1,
            central_sample_sort: false,
            ..PartitionConfig::default()
        };
        partition(comm, &set, &cfg, None, None)
    });
    // Buckets by f1=alpha, f2=organ:
    // PE1 sorted: algae alpha | alps order |        → bounds 0,2,4,4
    // PE2 sorted: algo |              | snow sorbet sorter → 0,1,1,4
    // PE3 sorted:      | orange organ | sorted soul → 0,0,2,4
    assert_eq!(result.values[0], vec![0, 2, 4, 4]);
    assert_eq!(result.values[1], vec![0, 1, 1, 4]);
    assert_eq!(result.values[2], vec![0, 0, 2, 4]);
}

#[test]
fn figure2_full_ms_result() {
    let result = run_spmd(3, RunConfig::default(), |comm| {
        let out = MergeSort::default().sort(comm, StringSet::from_strs(&PE_INPUTS[comm.rank()]));
        (out.set.to_vecs(), out.lcps.expect("MS emits LCPs"))
    });
    let all: Vec<String> = result
        .values
        .iter()
        .flat_map(|(v, _)| v.iter().map(|s| String::from_utf8_lossy(s).into_owned()))
        .collect();
    assert_eq!(
        all,
        [
            "algae", "algo", "alpha", "alps", "orange", "order", "organ", "snow", "sorbet",
            "sorted", "sorter", "soul"
        ]
    );
    // Fig. 2's final LCP values, re-segmented per PE boundary (⊥ → 0):
    // paper shows the merged column 0,3,2,3 | 0,2,2 | 0,1,3,5,2 for the
    // partition the algorithm's bucket rule actually produces.
    let lcps: Vec<Vec<u32>> = result.values.iter().map(|(_, l)| l.clone()).collect();
    assert_eq!(lcps[0], vec![0, 3, 2]);
    assert_eq!(lcps[1], vec![0, 0, 2, 2]);
    assert_eq!(lcps[2], vec![0, 1, 3, 5, 2]);
}

#[test]
fn figure3_prefix_doubling_depths() {
    let cfg = PrefixDoublingConfig {
        initial: Some(1),
        ..PrefixDoublingConfig::default()
    };
    let result = run_spmd(3, RunConfig::default(), move |comm| {
        let mut set = StringSet::from_strs(&PE_INPUTS[comm.rank()]);
        let (lcps, _) = sort_with_lcp(&mut set);
        let (approx, stats) = approx_dist_prefixes(comm, &set, &lcps, &cfg);
        let pairs: Vec<(String, u32)> = set
            .iter()
            .zip(&approx)
            .map(|(s, &a)| (String::from_utf8_lossy(s).into_owned(), a))
            .collect();
        (pairs, stats.iterations)
    });
    let mut approx_of: HashMap<String, u32> = HashMap::new();
    for (pairs, iters) in &result.values {
        assert_eq!(*iters, 4, "depths 1, 2, 4, 8 as in the figure");
        for (s, a) in pairs {
            approx_of.insert(s.clone(), *a);
        }
    }
    // Fig. 3's verdicts: snow's 2-prefix is unique at depth 2 (red);
    // everything else resolves at depth 4 except sorter/sorted, whose
    // 4-prefix "sort" stays duplicated (blue) until the length cap.
    assert_eq!(approx_of["snow"], 2);
    for s in [
        "algae", "algo", "alpha", "alps", "orange", "order", "organ", "sorbet", "soul",
    ] {
        assert_eq!(approx_of[s], 4, "{s}");
    }
    assert_eq!(approx_of["sorter"], 7);
    assert_eq!(approx_of["sorted"], 7);
}

#[test]
fn figure3_pdms_transmits_prefixes_only() {
    let result = run_spmd(3, RunConfig::default(), |comm| {
        let pdms = MergeSort::with_config(MergeSortConfig {
            prefix: Some(PrefixDoublingConfig {
                initial: Some(1),
                ..PrefixDoublingConfig::default()
            }),
            ..MergeSortConfig::default()
        });
        let out = pdms.sort(comm, StringSet::from_strs(&PE_INPUTS[comm.rank()]));
        out.set.to_vecs()
    });
    let all: Vec<String> = result
        .values
        .iter()
        .flatten()
        .map(|s| String::from_utf8_lossy(s).into_owned())
        .collect();
    // The globally sorted *distinguishing prefixes* (gray characters of
    // the figure never travel; sorter/sorted need their full strings).
    assert_eq!(
        all,
        [
            "alga", "algo", "alph", "alps", "oran", "orde", "orga", "sn", "sorb", "sorted",
            "sorter", "soul"
        ]
    );
}
