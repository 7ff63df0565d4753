//! End-to-end trace pins over full sorter runs: the pipelined exchange
//! must show strictly positive send-window overlap (receive-side decode
//! and merge work landing inside the send window) where the blocking
//! exchange shows exactly zero — the overlap ratio is the observable
//! the exchange engine's pipelining exists to move.
//!
//! The recorder is process-global; tests serialize on one lock.

use distributed_string_sorting::net::trace::{self, cat};
use distributed_string_sorting::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg() -> RunConfig {
    RunConfig {
        recv_timeout: Duration::from_secs(60),
        ..RunConfig::default()
    }
}

/// Deterministic shards with shared prefixes and duplicates, heavy
/// enough that per-bucket decode/merge work takes measurable time.
fn build_shards(p: usize, n_per_pe: usize) -> Vec<Vec<Vec<u8>>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..p)
        .map(|_| {
            (0..n_per_pe)
                .map(|_| {
                    let len = 8 + (next() % 24) as usize;
                    let mut s = b"prefix/".to_vec();
                    s.extend((0..len).map(|_| b'a' + (next() % 8) as u8));
                    s
                })
                .collect()
        })
        .collect()
}

/// Runs `alg` in `mode` with tracing on; returns the paired spans and
/// the per-PE output strings.
fn traced_run(
    alg: Algorithm,
    mode: ExchangeMode,
    threads: usize,
    shards: &[Vec<Vec<u8>>],
) -> (Vec<trace::Span>, Vec<Vec<Vec<u8>>>) {
    trace::reset();
    trace::enable(trace::DEFAULT_SPAN_CAP);
    let shards = shards.to_vec();
    let res = run_spmd(shards.len(), cfg(), move |comm| {
        let set = StringSet::from_iter_bytes(shards[comm.rank()].iter().map(|s| s.as_slice()));
        let out = alg.instance_with(mode, threads).sort(comm, set);
        out.set.to_vecs()
    });
    trace::disable();
    let trace = trace::take();
    let spans = trace::pair_spans(&trace).expect("traced sorter run must pair cleanly");
    (spans, res.values)
}

fn overlap_of(spans: &[trace::Span]) -> f64 {
    let windows = spans.iter().filter(|s| s.cat == cat::SEND_WINDOW);
    let work = spans
        .iter()
        .filter(|s| s.cat == cat::DECODE || s.cat == cat::MERGE);
    trace::overlap_ratio(windows, work)
}

#[test]
fn pipelined_overlaps_where_blocking_cannot() {
    let _g = lock();
    let shards = build_shards(4, 1500);
    let (blocking, out_b) = traced_run(Algorithm::Ms, ExchangeMode::Blocking, 1, &shards);
    let (pipelined, out_p) = traced_run(Algorithm::Ms, ExchangeMode::Pipelined, 1, &shards);
    // Same bytes either way — tracing must not perturb the sort.
    assert_eq!(out_b, out_p, "traced modes must stay byte-identical");

    // Every layer shows up in both traces.
    for cat in [
        cat::RUN,
        cat::PHASE,
        cat::COLL,
        cat::ALGO,
        cat::ENCODE,
        cat::DECODE,
        cat::MERGE,
        cat::SEND_WINDOW,
    ] {
        assert!(
            blocking.iter().any(|s| s.cat == cat),
            "blocking trace missing '{cat}'"
        );
        assert!(
            pipelined.iter().any(|s| s.cat == cat),
            "pipelined trace missing '{cat}'"
        );
    }

    // Blocking: the send window is the alltoallv itself; decode starts
    // strictly after, so the overlap ratio is zero by construction.
    assert_eq!(overlap_of(&blocking), 0.0, "blocking overlap must be 0");

    // Pipelined: at least the self-bucket decodes inside the window, so
    // the ratio is strictly positive.
    let ratio = overlap_of(&pipelined);
    assert!(ratio > 0.0, "pipelined overlap ratio was {ratio}");

    // And explicitly: on some PE track a decode begins before that
    // track's last in-window send ends — receive work is interleaved
    // with sending, not deferred past it.
    let interleaved = pipelined
        .iter()
        .filter(|w| w.cat == cat::SEND_WINDOW)
        .any(|w| {
            let last_send_end = pipelined
                .iter()
                .filter(|s| s.cat == cat::SEND && s.tid == w.tid)
                .filter(|s| s.start_ns >= w.start_ns && s.end_ns() <= w.end_ns())
                .map(|s| s.end_ns())
                .max();
            let Some(last_send_end) = last_send_end else {
                return false;
            };
            pipelined
                .iter()
                .filter(|s| s.tid == w.tid && (s.cat == cat::DECODE || s.cat == cat::MERGE))
                .any(|d| d.start_ns < last_send_end)
        });
    assert!(
        interleaved,
        "no decode/merge began before the final in-window send ended"
    );
}

/// Span counts for structural categories must not depend on the
/// shared-memory worker count: phases, collectives, exchange buckets and
/// merges are algorithmic, only `sort-task` granularity may change.
#[test]
fn structural_span_counts_are_thread_count_invariant() {
    let _g = lock();
    const STRUCTURAL: &[&str] = &[
        cat::ALGO,
        cat::PHASE,
        cat::COLL,
        cat::ENCODE,
        cat::DECODE,
        cat::MERGE,
        cat::SEND,
        cat::SEND_WINDOW,
    ];
    let shards = build_shards(4, 800);
    let counts = |threads: usize| -> BTreeMap<&'static str, usize> {
        let (spans, _) = traced_run(Algorithm::Ms, ExchangeMode::Pipelined, threads, &shards);
        let mut m = BTreeMap::new();
        for s in spans {
            if STRUCTURAL.contains(&s.cat) {
                *m.entry(s.cat).or_insert(0) += 1;
            }
        }
        m
    };
    let one = counts(1);
    let two = counts(2);
    assert!(!one.is_empty());
    assert_eq!(one, two, "structural span counts changed with threads");
}

/// Every preset — the eight merge-sort presets and the FKmerge / hQuick
/// baselines — records exactly one `algo` span per PE, named by its plot
/// label; also at prime p, where the grid presets run their level loop
/// flat instead of nesting a second sorter.
#[test]
fn merge_presets_record_one_algo_span_per_pe() {
    let _g = lock();
    for p in [4usize, 7] {
        let shards = build_shards(p, 200);
        for alg in Algorithm::all_extended() {
            let (spans, _) = traced_run(alg, ExchangeMode::Blocking, 1, &shards);
            let algo: Vec<&trace::Span> = spans.iter().filter(|s| s.cat == cat::ALGO).collect();
            let names: Vec<&str> = algo.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, vec![alg.label(); p], "{} at p={p}", alg.label());
            let tracks: std::collections::BTreeSet<u64> = algo.iter().map(|s| s.tid).collect();
            assert_eq!(tracks.len(), p, "{} at p={p}: one span per PE", alg.label());
        }
    }
}
