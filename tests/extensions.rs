//! End-to-end tests for the §VIII future-work extensions implemented on
//! top of the paper's algorithms: random splitter sampling, duplicate tie
//! breaking, delta-coded LCPs, latency-optimal fingerprint routing, and
//! the D/n estimators.

use distributed_string_sorting::dedup::prefix_doubling::PrefixDoublingConfig;
use distributed_string_sorting::prelude::*;
use distributed_string_sorting::sort::partition::{PartitionConfig, SamplingPolicy};

fn sort_and_check(sorter: &dyn DistSorter, shards: &[Vec<Vec<u8>>]) -> Vec<usize> {
    let p = shards.len();
    let mut expect: Vec<Vec<u8>> = shards.iter().flatten().cloned().collect();
    expect.sort();
    let res = run_spmd(p, RunConfig::default(), move |comm| {
        let set = StringSet::from_iter_bytes(shards[comm.rank()].iter().map(|s| s.as_slice()));
        let input = set.clone();
        let out = sorter.sort(comm, set);
        check_distributed_sort(comm, &input, &out).expect("distributed check");
        (out.set.to_vecs(), out.set.len())
    });
    let got: Vec<Vec<u8>> = res.values.iter().flat_map(|(v, _)| v.clone()).collect();
    // PDMS outputs prefixes; only compare full contents for plain sorters.
    if got.iter().map(|s| s.len()).sum::<usize>() == expect.iter().map(|s| s.len()).sum::<usize>() {
        assert_eq!(got, expect);
    }
    res.values.iter().map(|(_, n)| *n).collect()
}

fn duplicate_flood(p: usize) -> Vec<Vec<Vec<u8>>> {
    (0..p)
        .map(|r| {
            (0..200)
                .map(|i| {
                    if i % 10 == 0 {
                        format!("rare-{r}-{i}").into_bytes()
                    } else {
                        b"megadup".to_vec()
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn tie_break_balances_duplicate_floods() {
    let shards = duplicate_flood(4);
    let plain = MergeSort::default();
    let tie = MergeSort::with_config(MergeSortConfig {
        partition: PartitionConfig {
            duplicate_tie_break: true,
            ..PartitionConfig::default()
        },
        ..MergeSortConfig::default()
    });
    let plain_sizes = sort_and_check(&plain, &shards);
    let tie_sizes = sort_and_check(&tie, &shards);
    let imbalance = |sizes: &[usize]| -> usize {
        sizes.iter().copied().max().unwrap_or(0) - sizes.iter().copied().min().unwrap_or(0)
    };
    assert!(
        imbalance(&tie_sizes) < imbalance(&plain_sizes),
        "tie breaking must reduce imbalance: plain {plain_sizes:?} vs tie {tie_sizes:?}"
    );
}

#[test]
fn random_sampling_sorts_correctly() {
    let shards: Vec<Vec<Vec<u8>>> = (0..4)
        .map(|r| {
            (0..150)
                .map(|i| format!("{:03}-{r}", (i * 13 + r * 29) % 600).into_bytes())
                .collect()
        })
        .collect();
    let sorter = MergeSort::with_config(MergeSortConfig {
        partition: PartitionConfig {
            random_sampling: true,
            oversampling: 12,
            ..PartitionConfig::default()
        },
        ..MergeSortConfig::default()
    });
    sort_and_check(&sorter, &shards);
}

#[test]
fn pdms_with_all_extensions_sorts() {
    let shards = duplicate_flood(4);
    let sorter = MergeSort::with_config(MergeSortConfig {
        prefix: Some(PrefixDoublingConfig {
            golomb: true,
            latency_optimal: true,
            growth_num: 3,
            growth_den: 2,
            ..PrefixDoublingConfig::default()
        }),
        partition: PartitionConfig {
            policy: SamplingPolicy::DistPrefix,
            duplicate_tie_break: true,
            random_sampling: true,
            ..PartitionConfig::default()
        },
        codec: ExchangeCodec::LcpDelta,
        ..MergeSortConfig::default()
    });
    sort_and_check(&sorter, &shards);
}

#[test]
fn ms_delta_lcp_volume_not_worse_on_smooth_lcps() {
    // Sorted runs with slowly varying LCPs: delta coding should not cost
    // more than raw varint LCPs.
    let run = |delta: bool| -> u64 {
        let res = run_spmd(2, RunConfig::default(), move |comm| {
            let mut set = StringSet::new();
            for i in 0..2000u32 {
                set.push(format!("prefix-{:06}-{}", i, comm.rank()).as_bytes());
            }
            let sorter = MergeSort::with_config(MergeSortConfig {
                codec: if delta {
                    ExchangeCodec::LcpDelta
                } else {
                    ExchangeCodec::LcpCompressed
                },
                ..MergeSortConfig::default()
            });
            let _ = sorter.sort(comm, set);
        });
        res.stats.total_bytes_sent()
    };
    let raw = run(false);
    let delta = run(true);
    assert!(
        delta <= raw + raw / 20,
        "delta-coded LCPs {delta} should not exceed raw {raw} by >5%"
    );
}

#[test]
fn estimators_run_inside_full_pipeline() {
    use distributed_string_sorting::dedup::{
        estimate_dist_by_gossip, estimate_dist_by_prefix_sampling,
    };
    let res = run_spmd(4, RunConfig::default(), |comm| {
        let w = Workload::Suffix {
            text_len: 1200,
            cap: 200,
        };
        let set = w.generate(comm.rank(), comm.size(), 5);
        let gossip = estimate_dist_by_gossip(comm, &set, 40);
        let (prefix, _) = estimate_dist_by_prefix_sampling(comm, &set, 0.5);
        (gossip.mean_dist, prefix.mean_dist)
    });
    for (g, pfx) in &res.values {
        // Suffix instances: DIST is tiny relative to the 200-char cap.
        assert!(*g < 100.0, "gossip estimate {g}");
        assert!(*pfx < 100.0, "prefix-sampling estimate {pfx}");
        assert!(*g > 1.0 && *pfx > 1.0);
    }
}
