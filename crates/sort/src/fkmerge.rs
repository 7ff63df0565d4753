//! FKmerge — the Fischer–Kurpicz distributed string mergesort (§II-C),
//! the only prior distributed-memory string sorter and the paper's main
//! baseline.
//!
//! Per the paper's description: sort locally, choose p−1 samples
//! *equidistantly* from the sorted local set, gather all p(p−1) samples on
//! PE 0, sort them there, pick the splitters equidistantly from the
//! sorted sample, exchange buckets (no LCP compression), and merge with an
//! ordinary (not LCP-aware) loser tree.
//!
//! The centralized sample sort needs a quadratic sample and puts Θ(p²)
//! strings and p−1 message latencies on PE 0 — the bottleneck the paper
//! holds responsible for FKmerge's scalability collapse beyond ~320 cores.

use crate::exchange::{ExchangeCodec, ExchangeMode, ExchangePayload, StringAllToAll};
use crate::output::SortedRun;
use crate::partition::{self, PartitionConfig, SamplingPolicy};
use crate::{reject_sentinel_bytes, DistSorter};
use dss_net::trace::{self, cat};
use dss_net::Comm;
use dss_strkit::sort::{par_sort_with_lcp, threads_from_env};
use dss_strkit::StringSet;

/// The FKmerge baseline (deterministic sampling; centralized sample sort).
#[derive(Debug, Clone, Copy)]
pub struct FkMerge {
    /// Blocking or pipelined exchange (defaults to the
    /// `DSS_EXCHANGE_MODE` knob). The centralized sample sort itself is
    /// FKmerge's defining bottleneck and stays as-is.
    pub mode: ExchangeMode,
    /// Shared-memory threads per PE for the local sort and the k-way
    /// merge (defaults to the `DSS_THREADS` knob).
    pub threads: usize,
}

impl Default for FkMerge {
    fn default() -> Self {
        Self {
            mode: ExchangeMode::default(),
            threads: threads_from_env(),
        }
    }
}

impl FkMerge {
    /// Overrides the shared-memory thread count (local sort + merge).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be positive, got 0");
        self.threads = threads;
        self
    }
}

impl DistSorter for FkMerge {
    fn name(&self) -> &'static str {
        "FKmerge"
    }

    fn sort(&self, comm: &Comm, mut input: StringSet) -> SortedRun {
        let _algo = trace::span_args(
            cat::ALGO,
            self.name(),
            [("strings", input.len() as u64), ("", 0)],
        );
        comm.set_phase("local_sort");
        reject_sentinel_bytes(comm, &input);
        let (lcps, _) = par_sort_with_lcp(&mut input, self.threads);
        if comm.size() == 1 {
            return SortedRun::plain(input);
        }
        comm.set_phase("partition");
        let cfg = PartitionConfig {
            policy: SamplingPolicy::Strings,
            // Deterministic sampling needs p−1 samples per PE ([15]).
            oversampling: comm.size() - 1,
            central_sample_sort: true,
            mode: self.mode,
            threads: self.threads,
            ..PartitionConfig::default()
        };
        let splitters = partition::determine_splitters(comm, &input, &cfg, None, None);
        comm.set_phase("exchange");
        let mut engine =
            StringAllToAll::with_mode(ExchangeCodec::Plain, self.mode).with_threads(self.threads);
        engine.exchange_merge_by_splitters(
            comm,
            &ExchangePayload {
                set: &input,
                lcps: &lcps,
                origins: None,
                truncate: None,
            },
            &splitters,
            false,
            Some("merge"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_net::runner::{run_spmd, RunConfig};
    use rand::prelude::*;
    use std::time::Duration;

    fn cfg_run() -> RunConfig {
        RunConfig {
            recv_timeout: Duration::from_secs(30),
            ..RunConfig::default()
        }
    }

    fn check(p: usize, shards: Vec<Vec<Vec<u8>>>) {
        let mut expect: Vec<Vec<u8>> = shards.iter().flatten().cloned().collect();
        expect.sort();
        let shards_ref = &shards;
        let res = run_spmd(p, cfg_run(), move |comm| {
            let set =
                StringSet::from_iter_bytes(shards_ref[comm.rank()].iter().map(|s| s.as_slice()));
            FkMerge::default().sort(comm, set).set.to_vecs()
        });
        let got: Vec<Vec<u8>> = res.values.into_iter().flatten().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn sorts_random_shards() {
        let mut rng = StdRng::seed_from_u64(17);
        for p in [1usize, 2, 3, 5] {
            let shards: Vec<Vec<Vec<u8>>> = (0..p)
                .map(|_| {
                    (0..60)
                        .map(|_| {
                            let len = rng.gen_range(0..12);
                            (0..len).map(|_| rng.gen_range(b'a'..=b'f')).collect()
                        })
                        .collect()
                })
                .collect();
            check(p, shards);
        }
    }

    #[test]
    fn survives_duplicates_unlike_the_original() {
        // The paper reports the original FKmerge implementation crashes on
        // inputs with many repeated strings; ours must simply sort them.
        let shards: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|r| {
                (0..50)
                    .map(|i| {
                        if i % 3 == 0 {
                            b"repeated".to_vec()
                        } else {
                            format!("s{r}-{i}").into_bytes()
                        }
                    })
                    .collect()
            })
            .collect();
        check(4, shards);
    }

    #[test]
    fn centralized_sample_sort_is_the_bottleneck() {
        // PE 0 must receive p−1 sample messages: its partition-phase
        // latency rounds are linear in p, unlike the hQuick-based path.
        let res = run_spmd(5, cfg_run(), |comm| {
            let mut set = StringSet::new();
            for i in 0..40u32 {
                set.push(format!("k{}{}", comm.rank(), i).as_bytes());
            }
            let _ = FkMerge::default().sort(comm, set);
        });
        let part = res
            .stats
            .phases
            .iter()
            .find(|p| p.name == "partition")
            .expect("partition phase");
        assert!(part.max.rounds >= 4, "rounds {}", part.max.rounds);
    }
}
