//! SPMD execution: spawn `p` PE threads, run one closure on each, collect
//! results and aggregated communication statistics.
//!
//! Panics on any PE broadcast a poison pill to all mailboxes, so the other
//! PEs abort their blocked receives instead of deadlocking; the runner
//! then joins every PE and propagates the panic of the PE that failed
//! first (not a peer's secondary abort) to the caller.

use crate::comm::{Comm, Envelope, PeCore, WorldShared};
use crate::metrics::{NetStats, PeMetrics};
use crate::rng::SplitMix64;
use crossbeam::channel::unbounded;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one SPMD run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed all per-PE RNGs derive from.
    pub seed: u64,
    /// Receive timeout before a PE declares a deadlock.
    pub recv_timeout: Duration,
    /// Stack size per PE thread.
    pub stack_size: usize,
    /// Worker threads each PE uses for its local phases; feeds the
    /// oversubscription correction `min(1, cores / (p·t))` applied to
    /// compute-time accounting (see [`crate::metrics::oversub_scale`]).
    /// Defaults to the `DSS_THREADS` knob, matching what the sorters'
    /// default configurations actually spawn.
    pub threads_per_pe: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            seed: 0xD55_C0DE,
            recv_timeout: Duration::from_secs(120),
            stack_size: 4 << 20,
            threads_per_pe: dss_strkit::sort::threads_from_env(),
        }
    }
}

/// Result of an SPMD run.
pub struct SpmdResult<T> {
    /// Per-PE return values, indexed by world rank.
    pub values: Vec<T>,
    /// Aggregated communication statistics.
    pub stats: NetStats,
    /// Raw per-PE metrics (diagnostics).
    pub pe_metrics: Vec<PeMetrics>,
}

/// Runs `f` on `p` PE threads and collects results.
///
/// `f` is invoked once per PE with that PE's world communicator. Panics in
/// any PE abort the whole run (propagated to the caller).
pub fn run_spmd<T, F>(p: usize, cfg: RunConfig, f: F) -> SpmdResult<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(p >= 1, "need at least one PE");
    // Apply the DSS_TRACE knob (once per process; panics on bad values).
    crate::trace::init_from_env();
    let _run_span = crate::trace::span_args(
        crate::trace::cat::RUN,
        "run_spmd",
        [("pes", p as u64), ("", 0)],
    );
    let start = Instant::now();
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded::<Envelope>();
        senders.push(tx);
        receivers.push(rx);
    }
    let world = Arc::new(WorldShared::new(senders));
    // Oversubscription correction for compute-time accounting (see
    // `metrics::oversub_scale`): p PEs × the worker threads each spawns.
    let oversub_scale = crate::metrics::oversub_scale(p, cfg.threads_per_pe);
    let f = &f;
    let outcome: Vec<(T, PeMetrics)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                let world = Arc::clone(&world);
                let seed = SplitMix64::new(cfg.seed ^ 0x5eed_0000).next_u64();
                let recv_timeout = cfg.recv_timeout;
                scope
                    .builder()
                    .name(format!("pe{rank}"))
                    .stack_size(cfg.stack_size)
                    .spawn(move |_| {
                        // Creation order matters for span nesting: the PE's
                        // lifetime span opens before its first phase span.
                        let run_span = crate::trace::span_args(
                            crate::trace::cat::RUN,
                            "pe",
                            [("rank", rank as u64), ("", 0)],
                        );
                        let phase_span = crate::trace::span(crate::trace::cat::PHASE, "main");
                        let core = PeCore {
                            world_rank: rank,
                            world,
                            rx,
                            pending: Vec::new(),
                            metrics: PeMetrics::with_scale(oversub_scale),
                            seed,
                            recv_timeout,
                            slots: Vec::new(),
                            posted: Vec::new(),
                            free_slots: Vec::new(),
                            phase_span,
                            run_span,
                        };
                        let mut comm = Comm::world(core);
                        match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                            Ok(v) => {
                                let metrics = comm.take_metrics();
                                (v, metrics)
                            }
                            Err(e) => {
                                comm.world_shared().poison_all(rank);
                                resume_unwind(e);
                            }
                        }
                    })
                    .expect("spawn PE thread")
            })
            .collect();
        // Join every PE before re-raising, so the payload comes from the
        // PE that failed first rather than from whichever rank a
        // rank-order join reaches first (usually rank 0's secondary abort).
        let mut joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        if joined.iter().any(Result::is_err) {
            let culprit = world
                .first_failure()
                .filter(|&r| joined[r].is_err())
                .unwrap_or_else(|| joined.iter().position(Result::is_err).expect("a PE failed"));
            if let Err(e) = joined.swap_remove(culprit) {
                resume_unwind(e);
            }
        }
        joined
            .into_iter()
            .map(|r| r.expect("no PE failed"))
            .collect()
    })
    .expect("SPMD scope");
    let wall = start.elapsed();
    let (values, pe_metrics): (Vec<T>, Vec<PeMetrics>) = outcome.into_iter().unzip();
    let stats = NetStats::aggregate(&pe_metrics, wall);
    SpmdResult {
        values,
        stats,
        pe_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::comm::Tag;

    fn cfg() -> RunConfig {
        RunConfig {
            recv_timeout: Duration::from_secs(20),
            // These test closures are single-threaded; pin the accounting
            // scale so assertions don't depend on the DSS_THREADS default.
            threads_per_pe: 1,
            ..RunConfig::default()
        }
    }

    #[test]
    fn point_to_point_ring() {
        for p in [1usize, 2, 3, 5, 8] {
            let res = run_spmd(p, cfg(), |comm| {
                let r = comm.rank();
                let next = (r + 1) % comm.size();
                let prev = (r + comm.size() - 1) % comm.size();
                comm.send(next, Tag::user(1), vec![r as u8]);
                let got = comm.recv(prev, Tag::user(1));
                got[0] as usize
            });
            for (r, v) in res.values.iter().enumerate() {
                assert_eq!(*v, (r + p - 1) % p, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn message_matching_is_by_source_and_tag() {
        let res = run_spmd(3, cfg(), |comm| match comm.rank() {
            0 => {
                comm.send(2, Tag::user(7), vec![70]);
                comm.send(2, Tag::user(8), vec![80]);
                0
            }
            1 => {
                comm.send(2, Tag::user(7), vec![17]);
                0
            }
            _ => {
                // Receive out of arrival order on purpose.
                let b = comm.recv(0, Tag::user(8));
                let a = comm.recv(1, Tag::user(7));
                let c = comm.recv(0, Tag::user(7));
                (b[0] as usize) * 10000 + (a[0] as usize) * 100 + c[0] as usize
            }
        });
        assert_eq!(res.values[2], 80_0000 + 17_00 + 70);
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            for root in 0..p {
                let res = run_spmd(p, cfg(), |comm| {
                    let data = if comm.rank() == root {
                        vec![42, root as u8]
                    } else {
                        Vec::new()
                    };
                    comm.broadcast(root, data)
                });
                for v in res.values {
                    assert_eq!(v, vec![42, root as u8], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_and_allreduce_sum() {
        for p in [1usize, 2, 5, 8, 13] {
            let res = run_spmd(p, cfg(), |comm| {
                comm.allreduce_u64(comm.rank() as u64 + 1, ReduceOp::Sum)
            });
            let expect = (p * (p + 1) / 2) as u64;
            assert!(res.values.iter().all(|&v| v == expect), "p={p}");
        }
    }

    #[test]
    fn allreduce_max_min() {
        let res = run_spmd(6, cfg(), |comm| {
            let max = comm.allreduce_u64(comm.rank() as u64, ReduceOp::Max);
            let min = comm.allreduce_u64(comm.rank() as u64 + 10, ReduceOp::Min);
            (max, min)
        });
        assert!(res.values.iter().all(|&v| v == (5, 10)));
    }

    #[test]
    fn gatherv_collects_at_root() {
        let res = run_spmd(5, cfg(), |comm| {
            let data = vec![comm.rank() as u8; comm.rank() + 1];
            comm.gatherv(2, data)
        });
        for (r, v) in res.values.iter().enumerate() {
            if r == 2 {
                let parts = v.as_ref().expect("root receives");
                for (src, part) in parts.iter().enumerate() {
                    assert_eq!(part, &vec![src as u8; src + 1]);
                }
            } else {
                assert!(v.is_none());
            }
        }
    }

    #[test]
    fn allgatherv_all_sizes() {
        for p in [1usize, 2, 3, 4, 6, 8, 11] {
            let res = run_spmd(p, cfg(), |comm| {
                comm.allgatherv(vec![comm.rank() as u8; comm.rank() % 3 + 1])
            });
            for v in res.values {
                assert_eq!(v.len(), p);
                for (src, part) in v.iter().enumerate() {
                    assert_eq!(part, &vec![src as u8; src % 3 + 1], "p={p}");
                }
            }
        }
    }

    #[test]
    fn alltoallv_permutes_payloads() {
        for p in [1usize, 2, 4, 7] {
            let res = run_spmd(p, cfg(), |comm| {
                let msgs: Vec<Vec<u8>> = (0..p)
                    .map(|dst| vec![comm.rank() as u8, dst as u8])
                    .collect();
                comm.alltoallv(msgs)
            });
            for (r, v) in res.values.iter().enumerate() {
                for (src, m) in v.iter().enumerate() {
                    assert_eq!(m, &vec![src as u8, r as u8], "p={p}");
                }
            }
        }
    }

    #[test]
    fn alltoallv_hypercube_matches_direct() {
        for p in [1usize, 2, 4, 8] {
            let res = run_spmd(p, cfg(), |comm| {
                let msgs: Vec<Vec<u8>> = (0..p)
                    .map(|dst| vec![comm.rank() as u8, dst as u8, 99])
                    .collect();
                comm.alltoallv_hypercube(msgs)
            });
            for (r, v) in res.values.iter().enumerate() {
                for (src, m) in v.iter().enumerate() {
                    assert_eq!(m, &vec![src as u8, r as u8, 99], "p={p}");
                }
            }
        }
    }

    #[test]
    fn scan_and_barrier() {
        let res = run_spmd(6, cfg(), |comm| {
            comm.barrier();
            let (prefix, total) = comm.exclusive_scan_sum_u64(comm.rank() as u64 + 1);
            comm.barrier();
            (prefix, total)
        });
        for (r, &(prefix, total)) in res.values.iter().enumerate() {
            assert_eq!(total, 21);
            assert_eq!(prefix, (r * (r + 1) / 2) as u64);
        }
    }

    #[test]
    fn split_forms_independent_subgroups() {
        let res = run_spmd(8, cfg(), |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color);
            // Within each subgroup, sum the world ranks.
            let sum = sub.allreduce_u64(comm.rank() as u64, ReduceOp::Sum);
            (sub.size(), sub.rank(), sum)
        });
        for (r, &(size, sub_rank, sum)) in res.values.iter().enumerate() {
            assert_eq!(size, 4);
            assert_eq!(sub_rank, r / 2);
            assert_eq!(sum, if r % 2 == 0 { 2 + 4 + 6 } else { 1 + 3 + 5 + 7 });
        }
    }

    #[test]
    fn nested_splits() {
        let res = run_spmd(8, cfg(), |comm| {
            let half = comm.split((comm.rank() / 4) as u64);
            let quarter = half.split((half.rank() / 2) as u64);
            quarter.allreduce_u64(comm.rank() as u64, ReduceOp::Sum)
        });
        let expect = [1, 1, 5, 5, 9, 9, 13, 13];
        for (r, &v) in res.values.iter().enumerate() {
            assert_eq!(v, expect[r], "rank {r}");
        }
    }

    #[test]
    fn byte_accounting_is_exact_for_p2p() {
        let res = run_spmd(2, cfg(), |comm| {
            comm.set_phase("payload");
            if comm.rank() == 0 {
                comm.send(1, Tag::user(0), vec![0u8; 1000]);
            } else {
                let _ = comm.recv(0, Tag::user(0));
            }
        });
        let phase = res
            .stats
            .phases
            .iter()
            .find(|p| p.name == "payload")
            .expect("phase exists");
        assert_eq!(phase.total.bytes_sent, 1000);
        assert_eq!(phase.total.bytes_recv, 1000);
        assert_eq!(phase.total.msgs_sent, 1);
        assert_eq!(phase.max.rounds, 1);
    }

    #[test]
    fn self_messages_are_free() {
        let res = run_spmd(1, cfg(), |comm| {
            comm.send(0, Tag::user(3), vec![1, 2, 3]);
            comm.recv(0, Tag::user(3))
        });
        assert_eq!(res.values[0], vec![1, 2, 3]);
        assert_eq!(res.stats.total_bytes_sent(), 0);
    }

    #[test]
    fn alltoallv_counts_exclude_self() {
        let res = run_spmd(4, cfg(), |comm| {
            let msgs: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 100]).collect();
            comm.alltoallv(msgs);
        });
        // 4 PEs × 3 remote messages × 100 B.
        assert_eq!(res.stats.total_bytes_sent(), 1200);
        assert_eq!(res.stats.totals().msgs_sent, 12);
    }

    #[test]
    fn exchange_is_one_round() {
        let res = run_spmd(2, cfg(), |comm| {
            let got = comm.exchange(1 - comm.rank(), Tag::user(9), vec![comm.rank() as u8]);
            got[0]
        });
        assert_eq!(res.values, vec![1, 0]);
        assert_eq!(res.stats.bottleneck().rounds, 1);
    }

    #[test]
    #[should_panic(expected = "PE 2 marker")]
    fn failing_pe_panic_reaches_the_caller() {
        run_spmd(4, cfg(), |comm| {
            if comm.rank() == 2 {
                panic!("PE 2 marker");
            }
            // Rank 0 blocks in `recv` and aborts on the poison pill; the
            // caller must still see PE 2's own message, not rank 0's.
            let _ = comm.recv(2, Tag::user(0));
        });
    }

    #[test]
    #[should_panic]
    fn pe_panic_propagates() {
        run_spmd(4, cfg(), |comm| {
            if comm.rank() == 2 {
                panic!("boom");
            }
            // Other PEs block; the poison pill must wake them up.
            let _ = comm.recv(2, Tag::user(0));
        });
    }

    #[test]
    fn deterministic_rng_per_rank() {
        let a = run_spmd(4, cfg(), |comm| comm.rng().next_u64());
        let b = run_spmd(4, cfg(), |comm| comm.rng().next_u64());
        assert_eq!(a.values, b.values);
        // Different ranks get different streams.
        assert_ne!(a.values[0], a.values[1]);
    }

    #[test]
    fn compute_vs_comm_time_split() {
        let res = run_spmd(2, cfg(), |comm| {
            comm.set_phase("spin");
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(20) {
                std::hint::spin_loop();
            }
            comm.barrier();
        });
        let phase = res
            .stats
            .phases
            .iter()
            .find(|p| p.name == "spin")
            .expect("phase");
        // Compute spans are scaled by cores/(p·t) when the host
        // oversubscribes; apply the same scale to the bound so the test is
        // meaningful on any machine, including 1-core hosts.
        let want = (15_000_000f64 * crate::metrics::oversub_scale(2, 1)) as u64;
        assert!(
            phase.max.compute_ns >= want,
            "compute {}ns, want >= {want}ns",
            phase.max.compute_ns
        );
    }

    /// With `threads_per_pe` configured, compute attribution shrinks by
    /// exactly the extra oversubscription factor: the same single-threaded
    /// spin is charged `min(1, cores/(p·t))` of its wall time. Scaled
    /// bounds keep this green on 1-core hosts.
    #[test]
    fn compute_attribution_scales_with_threads_per_pe() {
        let spin = |comm: &mut crate::comm::Comm| {
            comm.set_phase("spin");
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(20) {
                std::hint::spin_loop();
            }
            comm.barrier();
        };
        let threaded = run_spmd(
            2,
            RunConfig {
                threads_per_pe: 4,
                ..cfg()
            },
            spin,
        );
        let phase = threaded
            .stats
            .phases
            .iter()
            .find(|p| p.name == "spin")
            .expect("phase");
        let scale = crate::metrics::oversub_scale(2, 4);
        let want_min = (15_000_000f64 * scale) as u64;
        // Upper bound uses the single-thread scale: a 4-thread-per-PE run
        // must be charged at most what a 1-thread run would be (strictly
        // less whenever the host has fewer than 8 cores), plus slack for
        // scheduling noise on the 20 ms spin.
        let want_max = (90_000_000f64 * crate::metrics::oversub_scale(2, 1)) as u64;
        assert!(
            phase.max.compute_ns >= want_min,
            "compute {}ns, want >= {want_min}ns",
            phase.max.compute_ns
        );
        assert!(
            phase.max.compute_ns <= want_max,
            "compute {}ns, want <= {want_max}ns",
            phase.max.compute_ns
        );
    }
}
