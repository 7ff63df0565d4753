//! hQuick — hypercube quicksort adapted to strings (§IV).
//!
//! The atomic-sorting baseline (after Axtmann & Sanders' RQuick) and the
//! subroutine all merge-based algorithms use to sort their splitter
//! samples. Only `2^⌊log p⌋ ≥ p/2` PEs participate. The algorithm:
//!
//! 1. move every input string to a uniformly random hypercube node;
//! 2. for dimension `i = d−1 … 0`: approximate the subcube's median with
//!    a tree reduction over local candidate medians, broadcast it as the
//!    pivot, split local data into `≤ pivot` / `> pivot`, and exchange the
//!    halves with the partner across dimension `i` (lower subcube keeps
//!    `≤`);
//! 3. sort locally.
//!
//! Tie breaking: every string carries a unique 64-bit id after placement;
//! a pivot is the pair (string, id) and equal strings compare by id,
//! which makes the pivot unique (the paper's requirement) and keeps
//! duplicate-heavy inputs balanced.
//!
//! Costs (Theorem 1): polylog latency, but all data moves log p times and
//! comparisons never exploit common prefixes — the properties that make
//! hQuick lose to the genuine string sorters on anything large.

use crate::output::SortedRun;
use crate::{reject_sentinel_bytes, DistSorter};
use dss_codec::wire;
use dss_net::topology;
use dss_net::{Comm, SplitMix64};
use dss_strkit::sort::{par_sort_with_lcp, threads_from_env};
use dss_strkit::StringSet;

/// Candidates kept per reduction step of the pivot selection.
const PIVOT_FANOUT: usize = 3;

/// The hQuick sorter (the paper runs it as-is; the knobs are the exchange
/// mode of its random-placement scatter and the shared-memory thread
/// count of its final local sort).
#[derive(Debug, Clone, Copy)]
pub struct HQuick {
    /// Blocking or pipelined placement scatter (defaults to the
    /// `DSS_EXCHANGE_MODE` knob).
    pub mode: crate::exchange::ExchangeMode,
    /// Shared-memory threads per PE for the final local sort (defaults to
    /// the `DSS_THREADS` knob).
    pub threads: usize,
}

impl Default for HQuick {
    fn default() -> Self {
        Self {
            mode: crate::exchange::ExchangeMode::default(),
            threads: threads_from_env(),
        }
    }
}

impl HQuick {
    /// Overrides the shared-memory thread count (final local sort).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be positive, got 0");
        self.threads = threads;
        self
    }
}

impl DistSorter for HQuick {
    fn name(&self) -> &'static str {
        "hQuick"
    }

    fn sort(&self, comm: &Comm, input: StringSet) -> SortedRun {
        // The ingestion check is local work: charge it to local_sort, as
        // every sorter does, not to the placement that follows.
        comm.set_phase("local_sort");
        reject_sentinel_bytes(comm, &input);
        let (mut set, _) = hquick_sort(comm, input, true, self.mode);
        comm.set_phase("local_sort");
        let (lcps, _) = par_sort_with_lcp(&mut set, self.threads);
        SortedRun {
            set,
            lcps: Some(lcps),
            origins: None,
            local_store: None,
        }
    }
}

/// Sample-sorting entry for the partitioners: returns this PE's sorted
/// slice of the global sample (empty on PEs outside the hypercube).
///
/// Does **not** touch the metrics phase — all traffic stays attributed to
/// the caller's current phase (the partitioning step it serves). `mode`
/// drives the placement scatter, so a caller-selected exchange mode
/// reaches every byte the partitioning moves; `threads` drives the local
/// sample sort the same way.
pub fn sort_for_samples(
    comm: &Comm,
    sample: StringSet,
    mode: crate::exchange::ExchangeMode,
    threads: usize,
) -> StringSet {
    let (mut set, _) = hquick_sort(comm, sample, false, mode);
    let (_, _) = par_sort_with_lcp(&mut set, threads);
    set
}

/// Runs placement + d partition/exchange levels. Returns the local
/// fragment (unsorted) and its tie-breaker ids. `set_phases` labels the
/// metrics phases (top-level runs only; subroutine use keeps the caller's
/// phase); `mode` drives the placement scatter.
fn hquick_sort(
    comm: &Comm,
    input: StringSet,
    set_phases: bool,
    mode: crate::exchange::ExchangeMode,
) -> (StringSet, Vec<u64>) {
    let p = comm.size();
    if p == 1 {
        let ids = (0..input.len() as u64).collect();
        return (input, ids);
    }
    let q = topology::hypercube_size(p);
    let d = topology::hypercube_dim(p);
    let mut rng = comm.rng();

    // Step 1: random placement onto the q hypercube nodes, via the plain
    // scatter of the shared exchange engine.
    if set_phases {
        comm.set_phase("hq_place");
    }
    let dest_of: Vec<usize> = (0..input.len()).map(|_| rng.next_index(q)).collect();
    let mut engine =
        crate::exchange::StringAllToAll::with_mode(crate::exchange::ExchangeCodec::Plain, mode);
    let runs = engine.scatter_plain(comm, &input, &dest_of);
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let total_chars: usize = runs.iter().map(|r| r.data.len()).sum();
    let mut set = StringSet::with_capacity(total, total_chars);
    for run in runs {
        for s in run.iter() {
            set.push(s);
        }
    }
    drop(input);
    let mut ids: Vec<u64> = (0..set.len() as u64)
        .map(|i| ((comm.rank() as u64) << 40) | i)
        .collect();

    // PEs outside the hypercube are done (they hold no data).
    let in_cube = comm.rank() < q;
    let mut cur = comm.split(u64::from(!in_cube));
    if !in_cube {
        debug_assert!(set.is_empty());
        return (set, ids);
    }

    // Step 2: peel one dimension per iteration.
    if set_phases {
        comm.set_phase("hq_partition");
    }
    // Decode scratch reused across all d levels.
    let mut run_scratch = wire::DecodedRun::default();
    for level in (0..d).rev() {
        let pivot = select_pivot(&cur, &set, &ids, &mut rng);
        let (keep_le, bit) = {
            let bit = cur.rank() & (1 << level) != 0;
            (!bit, bit)
        };
        // Partition: ≤ pivot (ties by id) vs > pivot.
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        match &pivot {
            Some((ps, pid)) => {
                for (i, s) in set.iter().enumerate() {
                    let le = match s.cmp(ps.as_slice()) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        std::cmp::Ordering::Equal => ids[i] <= *pid,
                    };
                    if le {
                        left_idx.push(i);
                    } else {
                        right_idx.push(i);
                    }
                }
            }
            None => left_idx.extend(0..set.len()),
        }
        let (send_idx, keep_idx) = if keep_le {
            (right_idx, left_idx)
        } else {
            (left_idx, right_idx)
        };
        let send_ids: Vec<u64> = send_idx.iter().map(|&i| ids[i]).collect();
        let strings = || {
            crate::exchange::ExactIter::new(send_idx.iter().map(|&i| set.get(i)), send_idx.len())
        };
        // Reserve the exact encoded size once; encoding never reallocates.
        let exact = wire::encoded_len_plain(strings(), Some(&send_ids));
        let mut buf = Vec::with_capacity(exact);
        wire::encode_plain(strings(), Some(&send_ids), &mut buf);
        debug_assert_eq!(buf.len(), exact);
        let partner = cur.rank() ^ (1 << level);
        let incoming = cur.exchange(partner, dss_net::Tag::user(level as u64), buf);
        // Rebuild the working set: kept strings + received fragment,
        // decoded into per-sort scratch and pre-reserved exactly.
        let mut pos = 0;
        wire::decode_plain_into(&incoming, &mut pos, &mut run_scratch)
            .expect("well-formed exchange run");
        let run = &run_scratch;
        let kept_chars: usize = keep_idx.iter().map(|&i| set.get(i).len()).sum();
        let mut next =
            StringSet::with_capacity(keep_idx.len() + run.len(), kept_chars + run.data.len());
        let mut next_ids = Vec::with_capacity(keep_idx.len() + run.len());
        for &i in &keep_idx {
            next.push(set.get(i));
            next_ids.push(ids[i]);
        }
        let run_ids = run.origins.as_deref().unwrap_or(&[]);
        for (k, s) in run.iter().enumerate() {
            next.push(s);
            next_ids.push(run_ids[k]);
        }
        set = next;
        ids = next_ids;
        // Narrow to the subcube sharing this bit.
        cur = cur.split(u64::from(bit));
    }
    (set, ids)
}

/// Approximates the subcube median: local median-of-3 candidates are
/// merged along a binomial reduction tree, keeping [`PIVOT_FANOUT`]
/// evenly spaced representatives per step; the root's middle candidate is
/// broadcast as the pivot.
fn select_pivot(
    cur: &Comm,
    set: &StringSet,
    ids: &[u64],
    rng: &mut SplitMix64,
) -> Option<(Vec<u8>, u64)> {
    // Local candidates: up to 3 random strings, sorted.
    let n = set.len();
    let mut cand: Vec<(Vec<u8>, u64)> = (0..n.min(PIVOT_FANOUT))
        .map(|_| {
            let i = rng.next_index(n);
            (set.get(i).to_vec(), ids[i])
        })
        .collect();
    cand.sort();
    let encode = |c: &[(Vec<u8>, u64)]| -> Vec<u8> {
        let mut buf = Vec::new();
        let tags: Vec<u64> = c.iter().map(|(_, id)| *id).collect();
        wire::encode_plain(c.iter().map(|(s, _)| s.as_slice()), Some(&tags), &mut buf);
        buf
    };
    let decode = |buf: &[u8]| -> Vec<(Vec<u8>, u64)> {
        let mut pos = 0;
        let run = wire::decode_plain(buf, &mut pos).expect("well-formed candidate run");
        let tags = run.origins.clone().unwrap_or_default();
        run.iter().map(|s| s.to_vec()).zip(tags).collect()
    };
    let reduced = cur.allreduce(encode(&cand), |a, b| {
        let mut merged = decode(&a);
        merged.extend(decode(&b));
        merged.sort();
        // Keep PIVOT_FANOUT evenly spaced representatives (a pseudo
        // median-of-medians that provably stays within the value range).
        let k = merged.len();
        let kept: Vec<(Vec<u8>, u64)> = if k <= PIVOT_FANOUT {
            merged
        } else {
            (1..=PIVOT_FANOUT)
                .map(|j| merged[(j * k) / (PIVOT_FANOUT + 1)].clone())
                .collect()
        };
        encode(&kept)
    });
    let cands = decode(&reduced);
    if cands.is_empty() {
        None
    } else {
        Some(cands[cands.len() / 2].clone())
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

    fn run_and_gather(p: usize, shards: Vec<Vec<Vec<u8>>>) -> Vec<Vec<u8>> {
        let shards_ref = &shards;
        let res = run_spmd(p, cfg_run(), move |comm| {
            let set =
                StringSet::from_iter_bytes(shards_ref[comm.rank()].iter().map(|s| s.as_slice()));
            let out = HQuick::default().sort(comm, set);
            if let Some(lcps) = &out.lcps {
                dss_strkit::lcp::verify_lcp_array(&out.set, lcps).expect("lcp array");
            }
            out.set.to_vecs()
        });
        res.values.into_iter().flatten().collect()
    }

    fn random_shards(p: usize, n_per_pe: usize, seed: u64) -> Vec<Vec<Vec<u8>>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| {
                (0..n_per_pe)
                    .map(|_| {
                        let len = rng.gen_range(0..10);
                        (0..len).map(|_| rng.gen_range(b'a'..=b'e')).collect()
                    })
                    .collect()
            })
            .collect()
    }

    fn check_sorted_permutation(p: usize, shards: Vec<Vec<Vec<u8>>>) {
        let mut expect: Vec<Vec<u8>> = shards.iter().flatten().cloned().collect();
        expect.sort();
        let got = run_and_gather(p, shards);
        assert_eq!(got, expect);
    }

    #[test]
    fn sorts_across_power_of_two_pes() {
        check_sorted_permutation(4, random_shards(4, 80, 1));
        check_sorted_permutation(8, random_shards(8, 30, 2));
    }

    #[test]
    fn sorts_on_non_power_of_two_pes() {
        // p=6 → only 4 PEs participate; output still globally sorted.
        check_sorted_permutation(6, random_shards(6, 40, 3));
        check_sorted_permutation(3, random_shards(3, 50, 4));
    }

    #[test]
    fn single_pe_passthrough() {
        check_sorted_permutation(1, random_shards(1, 100, 5));
    }

    #[test]
    fn handles_duplicate_heavy_input() {
        let shards: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|_| (0..100).map(|_| b"dup".to_vec()).collect())
            .collect();
        check_sorted_permutation(4, shards);
    }

    #[test]
    fn handles_empty_and_lopsided_shards() {
        let mut shards = random_shards(4, 0, 6);
        shards[2] = random_shards(1, 200, 7).remove(0);
        check_sorted_permutation(4, shards);
    }

    #[test]
    fn sample_sort_entry_is_sorted_globally() {
        let res = run_spmd(4, cfg_run(), |comm| {
            let mut rng = StdRng::seed_from_u64(comm.rank() as u64 + 50);
            let mut set = StringSet::new();
            for _ in 0..20 {
                let len = rng.gen_range(1..6);
                let s: Vec<u8> = (0..len).map(|_| rng.gen_range(b'a'..=b'c')).collect();
                set.push(&s);
            }
            let input = set.to_vecs();
            let sorted = sort_for_samples(comm, set, crate::exchange::ExchangeMode::default(), 1);
            (input, sorted.to_vecs())
        });
        let mut expect: Vec<Vec<u8>> = res.values.iter().flat_map(|(i, _)| i.clone()).collect();
        expect.sort();
        let got: Vec<Vec<u8>> = res.values.iter().flat_map(|(_, o)| o.clone()).collect();
        assert_eq!(got, expect);
    }
}
