//! Work-stealing parallel driver over the shared partition kernel.
//!
//! The sequential sorter (`radix::msd_radix_sort`) is a LIFO stack of
//! [`SortTask`] items fed through [`radix::partition_task`]; this module
//! is the *other* scheduler over the identical kernel: per-worker
//! [`crossbeam::deque`] deques plus a global injector. Each worker pops
//! locally (LIFO — depth-first, cache-warm), steals oldest-first from the
//! injector or a sibling when empty, and retires when the global pending
//! counter hits zero.
//!
//! **Threshold spawning.** Blocks of at most [`PAR_TASK_MIN`] strings are
//! drained to completion on the worker that holds them with a private
//! sequential stack — only blocks above the threshold are partitioned one
//! step at a time and their subtasks published for stealing. Small tasks
//! therefore never pay deque traffic.
//!
//! **Why output is byte-identical to the sequential sorter.** The kernel's
//! determinism contract (see `partition_task`) guarantees each task writes
//! only inside its own range, every subtask's boundary LCP
//! `lcps[subtask.begin]` is written by the *parent* before the subtask is
//! published, and all written values depend only on block contents and
//! depth. Queued tasks have pairwise-disjoint ranges, so any interleaving
//! across any number of workers produces the same `refs` permutation and
//! the same LCP array — the stitching is deterministic by construction,
//! not by synchronization order. The same argument makes the work
//! counters exact: the task tree (and hence every pass's character
//! charge) is independent of scheduling.

use super::{radix, Ctx, SortStats, SortTask};
use crate::arena::{StrRef, StringSet};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Blocks of at most this many strings are never split across workers:
/// the holder drains them sequentially. Keeps task-publication overhead
/// (deque traffic + pending-counter updates) off the myriad small blocks
/// a string sort produces.
///
/// Tuned coarsely (any value well above the radix thresholds works); this
/// constant is the single source of truth — all guards reference it,
/// nothing hard-codes the value.
pub const PAR_TASK_MIN: usize = 2048;

/// Parses a `DSS_THREADS` value. `None` (unset) defers to the caller's
/// default; anything that is not a positive integer panics with the
/// offending value — a typo'd knob must fail loudly, not silently sort
/// single-threaded (same policy as `DSS_EXCHANGE_MODE`).
pub fn parse_dss_threads(raw: Option<&str>) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse::<usize>() {
        Ok(t) if t >= 1 => Some(t),
        _ => panic!("DSS_THREADS must be a positive integer, got '{raw}'"),
    }
}

/// Worker-thread count per PE: the validated `DSS_THREADS` knob,
/// defaulting to `std::thread::available_parallelism()`. Cached after the
/// first call, like `ExchangeMode::from_env`.
pub fn threads_from_env() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| match std::env::var("DSS_THREADS") {
        Ok(v) => parse_dss_threads(Some(&v)).unwrap(),
        Err(std::env::VarError::NotPresent) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(e) => panic!("DSS_THREADS must be a positive integer: {e}"),
    })
}

/// Raw views of the `refs`/`scratch`/`lcps` arrays shared by all workers.
/// Safe use rests on the scheduler invariant that queued tasks have
/// disjoint ranges and each task is materialized by exactly one worker at
/// a time. The ping-pong scratch buffer must be shared (not per-worker):
/// a flipped task's handles live in the scratch range written by its
/// parent, which may have run on a different worker — the deque transfer
/// provides the happens-before edge, exactly as for `refs`.
struct SharedSlices {
    refs: *mut StrRef,
    scratch: *mut StrRef,
    lcps: *mut u32,
    len: usize,
}

// SAFETY: the pointers target memory that outlives the sort scope, and
// range disjointness (enforced by the task scheduler, see `range`) keeps
// concurrent access non-overlapping.
unsafe impl Send for SharedSlices {}
unsafe impl Sync for SharedSlices {}

impl SharedSlices {
    /// Materializes the mutable sub-slices of one task.
    ///
    /// # Safety
    ///
    /// The caller must hold the exclusive right to `[begin, end)`: the
    /// scheduler hands every task to exactly one worker, ranges of
    /// distinct queued tasks are disjoint by construction (the kernel
    /// partitions a task into non-overlapping buckets), and a parent's
    /// borrow ends before its subtasks are published — the deque mutex
    /// provides the cross-thread happens-before edge.
    // The `&self -> &mut` shape is the whole point of the wrapper: shared
    // handle, caller-proven disjoint exclusive ranges.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range(&self, begin: usize, end: usize) -> (&mut [StrRef], &mut [StrRef], &mut [u32]) {
        debug_assert!(begin <= end && end <= self.len);
        (
            std::slice::from_raw_parts_mut(self.refs.add(begin), end - begin),
            std::slice::from_raw_parts_mut(self.scratch.add(begin), end - begin),
            std::slice::from_raw_parts_mut(self.lcps.add(begin), end - begin),
        )
    }
}

/// Sorts `refs` with `threads` workers, writing the block's LCP entries
/// into `lcps[1..]` — output (strings *and* LCP array) is byte-identical
/// to [`super::sort_refs_with_lcp`] for every thread count. `threads == 1`
/// and small inputs take the sequential path directly.
pub fn par_sort_refs_with_lcp(
    arena: &[u8],
    refs: &mut [StrRef],
    lcps: &mut [u32],
    threads: usize,
) -> SortStats {
    assert_eq!(refs.len(), lcps.len());
    assert!(threads >= 1, "thread count must be positive, got 0");
    let n = refs.len();
    if n == 0 {
        return SortStats::default();
    }
    if threads == 1 || n <= PAR_TASK_MIN {
        return super::sort_refs_with_lcp(arena, refs, lcps);
    }
    super::debug_assert_no_sentinel(arena, refs);
    // Full-length ping-pong scatter buffer, shared across workers (see
    // `SharedSlices`); the sequential path allocates the same buffer.
    let mut scratch = vec![StrRef::default(); n];
    let shared = SharedSlices {
        refs: refs.as_mut_ptr(),
        scratch: scratch.as_mut_ptr(),
        lcps: lcps.as_mut_ptr(),
        len: n,
    };
    let injector = Injector::new();
    injector.push(SortTask {
        begin: 0,
        end: n,
        depth: 0,
        flipped: false,
    });
    // Tasks queued or in flight; workers retire when this reaches zero.
    let pending = AtomicUsize::new(1);
    let workers: Vec<Worker<SortTask>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<SortTask>> = workers.iter().map(|w| w.stealer()).collect();
    let stats = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(wi, worker)| {
                let (injector, stealers, pending) = (&injector, &stealers, &pending);
                let shared = &shared;
                scope
                    .builder()
                    .name(format!("dss-sort{wi}"))
                    .spawn(move |_| {
                        worker_loop(arena, shared, worker, wi, injector, stealers, pending)
                    })
                    .expect("spawn sort worker")
            })
            .collect();
        let mut total = SortStats::default();
        for h in handles {
            total.absorb(h.join().expect("sort worker panicked"));
        }
        total
    })
    .expect("sort worker scope");
    lcps[0] = 0;
    stats
}

/// Sorts a [`StringSet`] in place with `threads` workers, returning its
/// LCP array plus work counters. Parallel counterpart of
/// [`super::sort_with_lcp`]; identical output for every thread count.
pub fn par_sort_with_lcp(set: &mut StringSet, threads: usize) -> (Vec<u32>, SortStats) {
    let mut lcps = vec![0u32; set.len()];
    let (arena, refs) = set.as_parts_mut();
    let stats = par_sort_refs_with_lcp(arena, refs, &mut lcps, threads);
    (lcps, stats)
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    arena: &[u8],
    shared: &SharedSlices,
    worker: Worker<SortTask>,
    wi: usize,
    injector: &Injector<SortTask>,
    stealers: &[Stealer<SortTask>],
    pending: &AtomicUsize,
) -> SortStats {
    let mut ctx = Ctx::new(arena);
    let mut subtasks: Vec<SortTask> = Vec::new();
    let mut seq_queue: Vec<SortTask> = Vec::new();
    loop {
        let Some(task) = worker.pop().or_else(|| steal_task(wi, injector, stealers)) else {
            if pending.load(Ordering::SeqCst) == 0 {
                return ctx.stats;
            }
            std::thread::yield_now();
            continue;
        };
        {
            let _g = dss_trace::span_args(
                dss_trace::cat::SORT_TASK,
                "task",
                [
                    ("worker", wi as u64),
                    ("strings", (task.end - task.begin) as u64),
                ],
            );
            process_task(shared, &mut ctx, task, &mut subtasks, &mut seq_queue);
        }
        // Account for the children *before* retiring the parent, so the
        // pending counter can only reach zero once the whole task tree —
        // including everything the children will spawn — has drained.
        if !subtasks.is_empty() {
            pending.fetch_add(subtasks.len(), Ordering::SeqCst);
            for t in subtasks.drain(..) {
                worker.push(t);
            }
        }
        pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one claimed task: small blocks are drained to completion with a
/// private sequential stack; larger ones take a single kernel step whose
/// subtasks are translated back to absolute positions for publication.
fn process_task(
    shared: &SharedSlices,
    ctx: &mut Ctx<'_>,
    task: SortTask,
    out: &mut Vec<SortTask>,
    seq_queue: &mut Vec<SortTask>,
) {
    let n = task.end - task.begin;
    // SAFETY: `task` came off a queue, so this worker holds the exclusive
    // right to its range (see `SharedSlices::range`).
    let (refs, scratch, lcps) = unsafe { shared.range(task.begin, task.end) };
    let rel = SortTask {
        begin: 0,
        end: n,
        depth: task.depth,
        flipped: task.flipped,
    };
    if n <= PAR_TASK_MIN {
        debug_assert!(seq_queue.is_empty());
        seq_queue.push(rel);
        while let Some(t) = seq_queue.pop() {
            radix::partition_task(ctx, refs, scratch, lcps, t, seq_queue);
        }
    } else {
        debug_assert!(out.is_empty());
        radix::partition_task(ctx, refs, scratch, lcps, rel, out);
        for t in out.iter_mut() {
            t.begin += task.begin;
            t.end += task.begin;
        }
    }
}

/// Steal order: global injector first (oldest, largest tasks), then
/// sibling deques. `Retry` verdicts are looped on.
fn steal_task(
    wi: usize,
    injector: &Injector<SortTask>,
    stealers: &[Stealer<SortTask>],
) -> Option<SortTask> {
    loop {
        match injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    for (i, s) in stealers.iter().enumerate() {
        if i == wi {
            continue;
        }
        loop {
            match s.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_set(n: usize, max_len: usize, seed: u64) -> StringSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = StringSet::new();
        for _ in 0..n {
            let len = rng.gen_range(0..max_len);
            let s: Vec<u8> = (0..len).map(|_| rng.gen_range(b'a'..=b'f')).collect();
            set.push(&s);
        }
        set
    }

    #[test]
    fn parse_accepts_positive_integers() {
        assert_eq!(parse_dss_threads(None), None);
        assert_eq!(parse_dss_threads(Some("1")), Some(1));
        assert_eq!(parse_dss_threads(Some("4")), Some(4));
        assert_eq!(parse_dss_threads(Some(" 16 ")), Some(16));
    }

    #[test]
    #[should_panic(expected = "DSS_THREADS must be a positive integer, got '0'")]
    fn parse_rejects_zero() {
        parse_dss_threads(Some("0"));
    }

    #[test]
    #[should_panic(expected = "DSS_THREADS must be a positive integer, got 'four'")]
    fn parse_rejects_garbage() {
        parse_dss_threads(Some("four"));
    }

    #[test]
    fn matches_sequential_above_threshold() {
        // Force real parallel scheduling: well above PAR_TASK_MIN.
        let mut seq = random_set(3 * PAR_TASK_MIN, 24, 99);
        let mut par = seq.clone();
        let (seq_lcps, seq_stats) = super::super::sort_with_lcp(&mut seq);
        for threads in [2, 3, 4] {
            let mut set = par.clone();
            let (lcps, stats) = par_sort_with_lcp(&mut set, threads);
            assert_eq!(set.refs(), seq.refs(), "refs differ at t={threads}");
            assert_eq!(lcps, seq_lcps, "lcps differ at t={threads}");
            assert_eq!(stats, seq_stats, "stats differ at t={threads}");
        }
        // threads == 1 must be the sequential path bit-for-bit too.
        let (lcps, stats) = par_sort_with_lcp(&mut par, 1);
        assert_eq!(par.refs(), seq.refs());
        assert_eq!(lcps, seq_lcps);
        assert_eq!(stats, seq_stats);
    }

    #[test]
    fn handles_all_equal_and_tiny_inputs() {
        let mut a = StringSet::from_strs(&["dup"; 4000]);
        let mut b = a.clone();
        let (la, _) = super::super::sort_with_lcp(&mut a);
        let (lb, _) = par_sort_with_lcp(&mut b, 4);
        assert_eq!(a.refs(), b.refs());
        assert_eq!(la, lb);

        let mut empty = StringSet::new();
        let (lcps, stats) = par_sort_with_lcp(&mut empty, 4);
        assert!(lcps.is_empty());
        assert_eq!(stats, SortStats::default());
    }
}
