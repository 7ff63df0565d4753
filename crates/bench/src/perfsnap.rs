//! perfsnap — the tracked hot-path performance baseline.
//!
//! Runs a fixed workload matrix (random / skewed / DNA / duplicate-heavy
//! × seq-sort / MS / MS-simple / PDMS / PDMS-Golomb / hQuick / MS2L /
//! MSML / PD-MS2L / PD-MSML, plus an exchange+merge micro-cell) and
//! reports, per cell:
//!
//! * **throughput** in MB of string characters per second (best of reps);
//! * **chars_accessed** of the sequential sorters (the paper's D-bounded
//!   work measure);
//! * **wire_bytes_per_string** — exchange-phase wire volume per string
//!   for the distributed cells (the column that shows the PD grid
//!   variants shipping D rather than N characters);
//! * **allocation counts** (calls + bytes) observed by the counting
//!   global allocator installed by the `perfsnap` binary.
//!
//! Snapshots are appended to `BENCH_perfsnap.json` so every PR has a
//! trajectory to beat: the first committed snapshot is the seed baseline,
//! later ones must not regress it. The numbers are host-dependent —
//! compare only runs from the same machine.

use crate::cli::Args;
use dss_gen::Workload;
use dss_net::runner::{run_spmd, RunConfig};
use dss_net::trace;
use dss_sort::exchange::{ExchangeCodec, ExchangePayload, StringAllToAll};
use dss_sort::{Algorithm, ExchangeMode};
use dss_strkit::copyvol;
use dss_strkit::losertree::{parallel_lcp_merge_into, MergeRun};
use dss_strkit::sort::{par_sort_with_lcp, sort_with_lcp};
use dss_strkit::StringSet;
use std::time::{Duration, Instant};

/// Allocation counter hook: returns `(alloc_calls, alloc_bytes)` so far.
/// The `perfsnap` binary wires this to its counting global allocator;
/// tests may pass a stub.
pub type AllocProbe = fn() -> (u64, u64);

/// The four workload rows of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapWorkload {
    /// Uniformly random strings (σ = 26, length 40).
    Random,
    /// Skewed string lengths (20% of strings padded to 4× length).
    Skewed,
    /// DNAREADS stand-in (σ = 4).
    Dna,
    /// 90% of strings drawn from a 16-string hot set.
    DupHeavy,
}

impl SnapWorkload {
    /// All rows, in report order.
    pub const ALL: [SnapWorkload; 4] = [
        SnapWorkload::Random,
        SnapWorkload::Skewed,
        SnapWorkload::Dna,
        SnapWorkload::DupHeavy,
    ];

    /// Row label used in the JSON.
    pub fn label(self) -> &'static str {
        match self {
            SnapWorkload::Random => "random",
            SnapWorkload::Skewed => "skewed",
            SnapWorkload::Dna => "dna",
            SnapWorkload::DupHeavy => "dup-heavy",
        }
    }

    /// Generates PE `rank`'s shard of `p`.
    pub fn generate(self, rank: usize, p: usize, seed: u64, n_per_pe: usize) -> StringSet {
        match self {
            SnapWorkload::Random => generate_random(rank, seed, n_per_pe),
            SnapWorkload::Skewed => Workload::SkewedDnRatio {
                n_per_pe,
                len: 40,
                r: 0.5,
                sigma: 26,
            }
            .generate(rank, p, seed),
            SnapWorkload::Dna => Workload::Dna { n_per_pe }.generate(rank, p, seed),
            SnapWorkload::DupHeavy => generate_dup_heavy(rank, seed, n_per_pe),
        }
    }
}

/// Uniformly random strings: every character independent over `a..=z`.
/// The distinguishing prefix is ~log_26 n characters, so the sorter's char
/// fetches are few but maximally scattered — the cache-behavior probe.
fn generate_random(rank: usize, seed: u64, n_per_pe: usize) -> StringSet {
    let mut rng = Splitmix(seed ^ ((rank as u64) << 32) ^ 0x7a_4d);
    const LEN: usize = 40;
    let mut set = StringSet::with_capacity(n_per_pe, n_per_pe * LEN);
    let mut buf = [0u8; LEN];
    for _ in 0..n_per_pe {
        for b in buf.iter_mut() {
            *b = b'a' + rng.below(26) as u8;
        }
        set.push(&buf);
    }
    set
}

/// Duplicate-heavy shard: 90% of strings come from a 16-string hot pool
/// with a skewed (geometric-ish) distribution, the rest are short random
/// strings. The adversary case for equality buckets and tie-breaking.
fn generate_dup_heavy(rank: usize, seed: u64, n_per_pe: usize) -> StringSet {
    let mut rng = Splitmix(seed ^ ((rank as u64) << 32) ^ 0xD0_D0);
    let pool: Vec<Vec<u8>> = (0..16u32)
        .map(|i| format!("hot_string_{:02}_{}", i, "x".repeat((i % 5) as usize)).into_bytes())
        .collect();
    let mut set = StringSet::with_capacity(n_per_pe, n_per_pe * 18);
    for _ in 0..n_per_pe {
        if rng.below(10) < 9 {
            // Skew towards the low pool indices.
            let i = (rng.below(16).min(rng.below(16))) as usize;
            set.push(&pool[i]);
        } else {
            let len = rng.below(12) as usize;
            let s: Vec<u8> = (0..len).map(|_| b'a' + rng.below(26) as u8).collect();
            set.push(&s);
        }
    }
    set
}

/// Deterministic splitmix64 (keeps `dss-bench` off the rand shim for the
/// snapshot path: reproducible across shim changes).
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }
}

/// One measured cell of the matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: &'static str,
    pub algo: &'static str,
    /// Global string count.
    pub n: usize,
    /// Global character count.
    pub chars: usize,
    /// Best-of-reps wall time of the measured region.
    pub wall: Duration,
    /// `chars / wall`, in MB/s.
    pub mb_per_s: f64,
    /// Sequential sorter work counter (seq cells only).
    pub chars_accessed: Option<u64>,
    /// Wire volume per string (distributed cells only).
    pub wire_bytes_per_string: Option<f64>,
    /// Allocator calls in the measured region (best rep).
    pub allocs: u64,
    /// Bytes requested from the allocator in the measured region.
    pub alloc_bytes: u64,
    /// Payload/handle bytes memcpy'd by the instrumented hot paths in the
    /// measured region (`dss_strkit::copyvol` delta). Deterministic per
    /// input — the drift-immune companion to the throughput column.
    pub bytes_copied: u64,
    /// Time PEs spent blocked with no message ready, summed over the
    /// measured phases (distributed cells only; from [`NetStats`]'s
    /// always-on stall account, so populated with or without tracing).
    ///
    /// [`NetStats`]: dss_net::NetStats
    pub comm_stall_ns: Option<u64>,
    /// Fraction of the exchange send window covered by receive-side
    /// decode/merge work ([`trace::overlap_ratio`] over the cell's
    /// spans). Requires tracing (`--trace` / `DSS_TRACE=on`); the
    /// pipelined exchange reports strictly positive values, blocking
    /// reports 0 by construction.
    pub overlap_ratio: Option<f64>,
}

/// Traces drained by the distributed cells, waiting for
/// [`take_recorded_traces`]. Cells drain the recorder per rep (the
/// overlap ratio must only see the cell's own spans), so the binary's
/// end-of-run export needs the drained pieces back.
fn trace_acc() -> &'static std::sync::Mutex<Vec<trace::Trace>> {
    static ACC: std::sync::OnceLock<std::sync::Mutex<Vec<trace::Trace>>> =
        std::sync::OnceLock::new();
    ACC.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

/// When tracing is on: drains the recorder, parks the drained trace for
/// [`take_recorded_traces`], and returns the cell's send-window overlap
/// ratio (decode + merge work inside [`trace::cat::SEND_WINDOW`] spans).
fn drain_cell_trace() -> Option<f64> {
    if !trace::enabled() {
        return None;
    }
    let t = trace::take();
    let ratio = trace::pair_spans(&t).ok().map(|spans| {
        trace::overlap_ratio(
            spans.iter().filter(|s| s.cat == trace::cat::SEND_WINDOW),
            spans
                .iter()
                .filter(|s| s.cat == trace::cat::DECODE || s.cat == trace::cat::MERGE),
        )
    });
    trace_acc().lock().expect("trace accumulator").push(t);
    ratio
}

/// Everything recorded since the last call: the per-cell drained traces
/// plus whatever is still buffered (sequential cells' sort tasks, the
/// driver thread). The binary merges these into one Perfetto export.
pub fn take_recorded_traces() -> Vec<trace::Trace> {
    let mut v = std::mem::take(&mut *trace_acc().lock().expect("trace accumulator"));
    let tail = trace::take();
    if !tail.is_empty() {
        v.push(tail);
    }
    v
}

/// Concatenates drained traces into one. Streams were drained at
/// quiescent points, so each `ThreadTrace` entry pairs on its own; a tid
/// appearing in several entries is fine — timestamps share one epoch.
pub fn merge_traces(traces: Vec<trace::Trace>) -> trace::Trace {
    let mut threads = Vec::new();
    let mut dropped = 0;
    for t in traces {
        dropped += t.dropped;
        threads.extend(t.threads);
    }
    trace::Trace { threads, dropped }
}

/// Sizing knobs for one snapshot run.
#[derive(Debug, Clone, Copy)]
pub struct SnapConfig {
    /// Strings for the sequential cells.
    pub seq_n: usize,
    /// Strings per PE for the distributed cells.
    pub dist_n_per_pe: usize,
    /// Simulated PEs for the distributed cells.
    pub p: usize,
    /// Repetitions (best wall time / min allocs kept).
    pub reps: usize,
    /// Workload seed.
    pub seed: u64,
    /// Diagnostic: truncate every string of the sequential cells to this
    /// many characters before sorting (0 = off). Isolates the cost of the
    /// first sort levels when chasing a regression.
    pub truncate: u32,
    /// Shared-memory threads of the `par-sort` / `par-merge` cells and of
    /// every PE in the distributed cells (the `seq-sort` / `merge` cells
    /// always run at 1 thread, so every snapshot carries a 1-vs-N
    /// comparison). Recorded in the snapshot config.
    pub threads: usize,
}

impl SnapConfig {
    /// Default matrix sizing (about a minute on a small host).
    pub fn full() -> Self {
        Self {
            seq_n: 120_000,
            dist_n_per_pe: 20_000,
            p: 4,
            reps: 3,
            seed: 0xBA5E,
            truncate: 0,
            threads: default_threads(),
        }
    }

    /// Tiny sizing for CI: exercises every cell in a few seconds.
    /// `seq_n` sits above the parallel sorter's sequential cutoff so a
    /// traced smoke run records `sort-task` spans too.
    pub fn smoke() -> Self {
        Self {
            seq_n: 6_000,
            dist_n_per_pe: 400,
            p: 4,
            reps: 1,
            seed: 0xBA5E,
            truncate: 0,
            threads: default_threads(),
        }
    }

    /// Builds the config from command-line flags (`--smoke`, `--seq-n`,
    /// `--dist-n`, `--pes`, `--reps`, `--seed`, `--threads`).
    pub fn from_args(args: &Args) -> Self {
        let base = if args.has("smoke") {
            Self::smoke()
        } else {
            Self::full()
        };
        Self {
            seq_n: args.get("seq-n", base.seq_n),
            dist_n_per_pe: args.get("dist-n", base.dist_n_per_pe),
            p: args.get("pes", base.p),
            reps: args.get("reps", base.reps).max(1),
            seed: args.get("seed", base.seed),
            truncate: args.get("truncate", base.truncate),
            threads: args.get("threads", base.threads).max(1),
        }
    }
}

/// Default N for the parallel cells: the host's core count, at least 2 so
/// the 1-vs-N comparison is never degenerate (on a 1-core host the
/// parallel cells still exercise the work-stealing scheduler, they just
/// cannot be faster — snapshot labels should carry the caveat).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

fn run_cfg() -> RunConfig {
    RunConfig {
        recv_timeout: Duration::from_secs(600),
        ..RunConfig::default()
    }
}

fn throughput(chars: usize, wall: Duration) -> f64 {
    chars as f64 / 1e6 / wall.as_secs_f64().max(1e-9)
}

/// Measures one sequential local-sort cell (single shard, no simulator).
pub fn seq_cell(w: SnapWorkload, cfg: &SnapConfig, probe: AllocProbe) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..cfg.reps {
        let mut set = w.generate(0, 1, cfg.seed, cfg.seq_n);
        if cfg.truncate > 0 {
            for i in 0..set.len() {
                set.truncate_str(i, cfg.truncate);
            }
        }
        let (n, chars) = (set.len(), set.num_chars());
        let (a0, b0) = probe();
        let c0 = copyvol::bytes_copied();
        let t0 = Instant::now();
        let (lcps, stats) = sort_with_lcp(&mut set);
        let wall = t0.elapsed();
        let (a1, b1) = probe();
        assert_eq!(lcps.len(), n);
        let cell = Cell {
            workload: w.label(),
            algo: "seq-sort",
            n,
            chars,
            wall,
            mb_per_s: throughput(chars, wall),
            chars_accessed: Some(stats.chars_accessed),
            wire_bytes_per_string: None,
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
            bytes_copied: copyvol::bytes_copied() - c0,
            comm_stall_ns: None,
            overlap_ratio: None,
        };
        if best.as_ref().is_none_or(|b| cell.wall < b.wall) {
            best = Some(cell);
        }
    }
    best.expect("reps >= 1")
}

/// Measures the work-stealing parallel local sort at `cfg.threads` on the
/// same shard as [`seq_cell`] — the 1-vs-N thread comparison row (output
/// is byte-identical to `seq-sort`, only the wall time may differ).
pub fn par_sort_cell(w: SnapWorkload, cfg: &SnapConfig, probe: AllocProbe) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..cfg.reps {
        let mut set = w.generate(0, 1, cfg.seed, cfg.seq_n);
        if cfg.truncate > 0 {
            for i in 0..set.len() {
                set.truncate_str(i, cfg.truncate);
            }
        }
        let (n, chars) = (set.len(), set.num_chars());
        let (a0, b0) = probe();
        let c0 = copyvol::bytes_copied();
        let t0 = Instant::now();
        let (lcps, stats) = par_sort_with_lcp(&mut set, cfg.threads);
        let wall = t0.elapsed();
        let (a1, b1) = probe();
        assert_eq!(lcps.len(), n);
        let cell = Cell {
            workload: w.label(),
            algo: "par-sort",
            n,
            chars,
            wall,
            mb_per_s: throughput(chars, wall),
            chars_accessed: Some(stats.chars_accessed),
            wire_bytes_per_string: None,
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
            bytes_copied: copyvol::bytes_copied() - c0,
            comm_stall_ns: None,
            overlap_ratio: None,
        };
        if best.as_ref().is_none_or(|b| cell.wall < b.wall) {
            best = Some(cell);
        }
    }
    best.expect("reps >= 1")
}

/// Measures a local k-way LCP merge of `cfg.p` pre-sorted runs drawn from
/// the workload, at the given thread count — `merge` (1 thread, the
/// sequential loser tree) and `par-merge` (`cfg.threads`, the range-split
/// parallel tree) rows. No simulator involved: this is the pure merge
/// kernel both exchange paths route through.
pub fn merge_cell(
    w: SnapWorkload,
    cfg: &SnapConfig,
    probe: AllocProbe,
    threads: usize,
    algo: &'static str,
) -> Cell {
    let k = cfg.p.max(2);
    let runs_data: Vec<(StringSet, Vec<u32>)> = (0..k)
        .map(|r| {
            let mut set = w.generate(r, k, cfg.seed ^ 0x3E6, cfg.seq_n / k);
            let (lcps, _) = sort_with_lcp(&mut set);
            (set, lcps)
        })
        .collect();
    let views: Vec<MergeRun<'_>> = runs_data
        .iter()
        .map(|(set, lcps)| MergeRun {
            arena: set.arena(),
            refs: set.refs(),
            lcps,
        })
        .collect();
    let (n, chars) = (
        runs_data.iter().map(|(s, _)| s.len()).sum::<usize>(),
        runs_data.iter().map(|(s, _)| s.num_chars()).sum::<usize>(),
    );
    let mut best: Option<Cell> = None;
    for _ in 0..cfg.reps {
        let mut out = StringSet::new();
        let (a0, b0) = probe();
        let c0 = copyvol::bytes_copied();
        let t0 = Instant::now();
        let merged = parallel_lcp_merge_into(&views, &mut out, threads);
        let wall = t0.elapsed();
        let (a1, b1) = probe();
        assert_eq!(out.len(), n);
        assert_eq!(merged.lcps.as_ref().map(Vec::len), Some(n));
        let cell = Cell {
            workload: w.label(),
            algo,
            n,
            chars,
            wall,
            mb_per_s: throughput(chars, wall),
            chars_accessed: None,
            wire_bytes_per_string: None,
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
            bytes_copied: copyvol::bytes_copied() - c0,
            comm_stall_ns: None,
            overlap_ratio: None,
        };
        if best.as_ref().is_none_or(|b| cell.wall < b.wall) {
            best = Some(cell);
        }
    }
    best.expect("reps >= 1")
}

/// Measures one distributed cell (`MS` or `MS-simple`) on the simulator.
/// Wall time is the max over PEs of the sort region; allocations are the
/// process-wide delta across the barrier-fenced sort region.
pub fn dist_cell(w: SnapWorkload, alg: Algorithm, cfg: &SnapConfig, probe: AllocProbe) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..cfg.reps {
        let (seed, n_per_pe, threads) = (cfg.seed, cfg.dist_n_per_pe, cfg.threads);
        let rc = RunConfig {
            threads_per_pe: threads,
            ..run_cfg()
        };
        let res = run_spmd(cfg.p, rc, move |comm| {
            comm.set_phase("generate");
            let shard = w.generate(comm.rank(), comm.size(), seed, n_per_pe);
            let (n, chars) = (shard.len(), shard.num_chars());
            comm.barrier();
            let before = (comm.rank() == 0).then(|| (probe(), copyvol::bytes_copied()));
            // Second fence: barrier exits are not synchronized, so
            // without it a fast PE could run ahead and do part of its
            // sort before rank 0 (still waking from the barrier) reads
            // the counters, sliding that work out of the window. No PE
            // can leave this barrier until rank 0 has entered it — i.e.
            // until the `before` reading is taken.
            comm.barrier();
            let t0 = Instant::now();
            comm.set_phase("sort");
            // The recorded `config.threads`, not the `DSS_THREADS` default.
            let sorter = alg.instance_with(ExchangeMode::default(), threads);
            let out = sorter.sort(comm, shard);
            let wall = t0.elapsed();
            comm.set_phase("drain");
            comm.barrier();
            let (da, db, dc) = match before {
                Some(((a0, b0), c0)) => {
                    let (a1, b1) = probe();
                    (a1 - a0, b1 - b0, copyvol::bytes_copied() - c0)
                }
                None => (0, 0, 0),
            };
            (n, chars, out.set.len(), wall, da, db, dc)
        });
        let n: usize = res.values.iter().map(|v| v.0).sum();
        let chars: usize = res.values.iter().map(|v| v.1).sum();
        let out_n: usize = res.values.iter().map(|v| v.2).sum();
        assert_eq!(out_n, n, "sort must conserve strings");
        let wall = res.values.iter().map(|v| v.3).max().expect("p >= 1");
        let allocs: u64 = res.values.iter().map(|v| v.4).sum();
        let alloc_bytes: u64 = res.values.iter().map(|v| v.5).sum();
        let bytes_copied: u64 = res.values.iter().map(|v| v.6).sum();
        // The sorter renames the phase internally; count everything that
        // is not generation or the barrier fences.
        let measured = |ph: &&dss_net::metrics::PhaseSummary| {
            !matches!(ph.name.as_str(), "generate" | "drain" | "main")
        };
        let bytes_sent: u64 = res
            .stats
            .phases
            .iter()
            .filter(measured)
            .map(|ph| ph.total.bytes_sent)
            .sum();
        let stall_ns: u64 = res
            .stats
            .phases
            .iter()
            .filter(measured)
            .map(|ph| ph.total.stall_ns)
            .sum();
        let overlap_ratio = drain_cell_trace();
        let cell = Cell {
            workload: w.label(),
            algo: alg.label(),
            n,
            chars,
            wall,
            mb_per_s: throughput(chars, wall),
            chars_accessed: None,
            wire_bytes_per_string: Some(bytes_sent as f64 / n.max(1) as f64),
            allocs,
            alloc_bytes,
            bytes_copied,
            comm_stall_ns: Some(stall_ns),
            overlap_ratio,
        };
        if best.as_ref().is_none_or(|b| cell.wall < b.wall) {
            best = Some(cell);
        }
    }
    best.expect("reps >= 1")
}

/// Measures the exchange+merge micro-cell: local sort (untimed), one
/// untimed warmup exchange that brings the engine's pooled decode scratch
/// to steady state, then a barrier-fenced fused
/// [`StringAllToAll::exchange_merge_by_splitters`] region — the same
/// entry point the merge-based algorithms use, so in pipelined mode the
/// cell exercises the rope-backed incremental cascade, and in blocking
/// mode the k-way loser-tree merge. The allocation and copy-volume
/// deltas are read on rank 0 across the fences, so they cover every
/// PE's steady-state exchange-path traffic and nothing else.
pub fn exchange_cell(w: SnapWorkload, cfg: &SnapConfig, probe: AllocProbe) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..cfg.reps {
        let (seed, n_per_pe) = (cfg.seed, cfg.dist_n_per_pe);
        let res = run_spmd(cfg.p, run_cfg(), move |comm| {
            let p = comm.size();
            let mut set = w.generate(comm.rank(), p, seed, n_per_pe);
            let (lcps, _) = sort_with_lcp(&mut set);
            // Global splitters, computed identically on every PE from a
            // deterministic out-of-band sample shard.
            let mut sample = w.generate(p, p + 1, seed ^ 0x515, n_per_pe.min(4096));
            let _ = sort_with_lcp(&mut sample);
            let mut splitters = StringSet::new();
            for j in 1..p {
                splitters.push(sample.get(j * sample.len() / p));
            }
            let payload = ExchangePayload {
                set: &set,
                lcps: &lcps,
                origins: None,
                truncate: None,
            };
            // Merge threads pinned to 1 so the cell isolates the
            // exchange path itself from `DSS_THREADS` scaling.
            let mut engine = StringAllToAll::new(ExchangeCodec::LcpCompressed).with_threads(1);
            // Warmup: populate the pooled decode scratch (untimed).
            let _ = engine.exchange_merge_by_splitters(comm, &payload, &splitters, false, None);
            comm.barrier();
            let before = (comm.rank() == 0).then(|| (probe(), copyvol::bytes_copied()));
            // Second fence: no PE may start the measured exchange until
            // rank 0 has taken the `before` reading (see `dist_cell`).
            comm.barrier();
            let t0 = Instant::now();
            let merged =
                engine.exchange_merge_by_splitters(comm, &payload, &splitters, false, None);
            let wall = t0.elapsed();
            comm.barrier();
            let (da, db, dc) = match before {
                Some(((a0, b0), c0)) => {
                    let (a1, b1) = probe();
                    (a1 - a0, b1 - b0, copyvol::bytes_copied() - c0)
                }
                None => (0, 0, 0),
            };
            (merged.set.len(), merged.set.num_chars(), wall, da, db, dc)
        });
        let n: usize = res.values.iter().map(|v| v.0).sum();
        let chars: usize = res.values.iter().map(|v| v.1).sum();
        let wall = res.values.iter().map(|v| v.2).max().expect("p >= 1");
        let allocs: u64 = res.values.iter().map(|v| v.3).sum();
        let alloc_bytes: u64 = res.values.iter().map(|v| v.4).sum();
        let bytes_copied: u64 = res.values.iter().map(|v| v.5).sum();
        let overlap_ratio = drain_cell_trace();
        let cell = Cell {
            workload: w.label(),
            algo: "exchange",
            n,
            chars,
            wall,
            mb_per_s: throughput(chars, wall),
            chars_accessed: None,
            wire_bytes_per_string: None,
            allocs,
            alloc_bytes,
            bytes_copied,
            comm_stall_ns: Some(res.stats.totals().stall_ns),
            overlap_ratio,
        };
        // Like every cell, wall time is best-of-reps; the allocation and
        // copy-volume fields independently keep their minimum (a slow rep
        // can still be the least noisy observation).
        best = Some(match best.take() {
            None => cell,
            Some(mut b) => {
                b.allocs = b.allocs.min(cell.allocs);
                b.alloc_bytes = b.alloc_bytes.min(cell.alloc_bytes);
                b.bytes_copied = b.bytes_copied.min(cell.bytes_copied);
                if cell.wall < b.wall {
                    Cell {
                        allocs: b.allocs,
                        alloc_bytes: b.alloc_bytes,
                        bytes_copied: b.bytes_copied,
                        ..cell
                    }
                } else {
                    b
                }
            }
        });
    }
    best.expect("reps >= 1")
}

/// Runs the whole matrix.
pub fn run_snapshot(cfg: &SnapConfig, probe: AllocProbe) -> Vec<Cell> {
    run_snapshot_filtered(cfg, probe, "")
}

/// [`run_snapshot`] restricted to cells whose `workload:algo` id contains
/// `filter` (empty = all). For quick iteration: `--only random:seq`.
pub fn run_snapshot_filtered(cfg: &SnapConfig, probe: AllocProbe, filter: &str) -> Vec<Cell> {
    let want = |w: SnapWorkload, algo: &str| {
        filter.is_empty() || format!("{}:{}", w.label(), algo).contains(filter)
    };
    let mut cells = Vec::new();
    for w in SnapWorkload::ALL {
        if want(w, "seq-sort") {
            eprintln!("perfsnap: {} / seq-sort", w.label());
            cells.push(seq_cell(w, cfg, probe));
        }
        if want(w, "par-sort") {
            eprintln!("perfsnap: {} / par-sort (t={})", w.label(), cfg.threads);
            cells.push(par_sort_cell(w, cfg, probe));
        }
        if want(w, "merge") {
            eprintln!("perfsnap: {} / merge", w.label());
            cells.push(merge_cell(w, cfg, probe, 1, "merge"));
        }
        if want(w, "par-merge") {
            eprintln!("perfsnap: {} / par-merge (t={})", w.label(), cfg.threads);
            cells.push(merge_cell(w, cfg, probe, cfg.threads, "par-merge"));
        }
        for alg in [
            Algorithm::Ms,
            Algorithm::MsSimple,
            Algorithm::Pdms,
            Algorithm::PdmsGolomb,
            Algorithm::HQuick,
            Algorithm::Ms2l,
            Algorithm::Msml,
            Algorithm::PdMs2l,
            Algorithm::PdMsml,
        ] {
            if want(w, alg.label()) {
                eprintln!("perfsnap: {} / {}", w.label(), alg.label());
                cells.push(dist_cell(w, alg, cfg, probe));
            }
        }
        if want(w, "exchange") {
            eprintln!("perfsnap: {} / exchange", w.label());
            cells.push(exchange_cell(w, cfg, probe));
        }
    }
    cells
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

/// Renders one snapshot (label + config + cells) as a JSON object.
pub fn snapshot_json(label: &str, cfg: &SnapConfig, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("  {\n");
    out.push_str(&format!("    \"label\": \"{}\",\n", json_escape(label)));
    out.push_str(&format!(
        "    \"config\": {{\"seq_n\": {}, \"dist_n_per_pe\": {}, \"p\": {}, \"reps\": {}, \"seed\": {}, \"exchange_mode\": \"{}\", \"threads\": {}}},\n",
        cfg.seq_n,
        cfg.dist_n_per_pe,
        cfg.p,
        cfg.reps,
        cfg.seed,
        ExchangeMode::from_env().label(),
        cfg.threads
    ));
    out.push_str("    \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let chars_accessed = c
            .chars_accessed
            .map_or("null".to_string(), |v| v.to_string());
        let bps = c.wire_bytes_per_string.map_or("null".to_string(), fmt_f64);
        let stall = c
            .comm_stall_ns
            .map_or("null".to_string(), |v| v.to_string());
        let overlap = c.overlap_ratio.map_or("null".to_string(), fmt_f64);
        out.push_str(&format!(
            "      {{\"workload\": \"{}\", \"algo\": \"{}\", \"n\": {}, \"chars\": {}, \
             \"wall_ms\": {}, \"throughput_mb_s\": {}, \"chars_accessed\": {}, \
             \"wire_bytes_per_string\": {}, \"allocs\": {}, \"alloc_bytes\": {}, \
             \"bytes_copied\": {}, \"comm_stall_ns\": {}, \"overlap_ratio\": {}}}{}\n",
            c.workload,
            c.algo,
            c.n,
            c.chars,
            fmt_f64(c.wall.as_secs_f64() * 1e3),
            fmt_f64(c.mb_per_s),
            chars_accessed,
            bps,
            c.allocs,
            c.alloc_bytes,
            c.bytes_copied,
            stall,
            overlap,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("    ]\n  }");
    out
}

/// Appends a snapshot object to the JSON-array file at `path` (creating
/// `[ ... ]` on first write). The file is always a valid JSON array of
/// snapshot objects, newest last.
pub fn append_snapshot(path: &std::path::Path, snapshot: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim_end();
    let body = if trimmed.is_empty() {
        format!("[\n{snapshot}\n]\n")
    } else {
        let inner = trimmed
            .strip_suffix(']')
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{} is not a JSON array", path.display()),
                )
            })?
            .trim_end();
        format!("{inner},\n{snapshot}\n]\n")
    };
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_probe() -> (u64, u64) {
        (0, 0)
    }

    #[test]
    fn smoke_matrix_runs_every_cell() {
        let cfg = SnapConfig {
            seq_n: 300,
            dist_n_per_pe: 80,
            // p = 4 so the MSML cell runs a genuine 2×2 grid instead of
            // its prime-p fallback.
            p: 4,
            reps: 1,
            seed: 1,
            truncate: 0,
            threads: 2,
        };
        let cells = run_snapshot(&cfg, no_probe);
        // seq-sort + par-sort + merge + par-merge + 9 distributed
        // algorithms + the exchange micro-cell.
        assert_eq!(cells.len(), SnapWorkload::ALL.len() * 14);
        for c in &cells {
            assert!(c.n > 0, "{}/{} empty", c.workload, c.algo);
            assert!(c.mb_per_s > 0.0);
        }
        // Sequential cells report work counters; distributed report volume.
        assert!(cells
            .iter()
            .filter(|c| c.algo == "seq-sort")
            .all(|c| c.chars_accessed.is_some()));
        for algo in [
            "MS",
            "MS-simple",
            "PDMS",
            "PDMS-Golomb",
            "hQuick",
            "MS2L",
            "MSML",
            "PD-MS2L",
            "PD-MSML",
        ] {
            assert!(
                cells
                    .iter()
                    .filter(|c| c.algo == algo)
                    .all(|c| c.wire_bytes_per_string.unwrap_or(0.0) > 0.0),
                "{algo} cells must report wire volume"
            );
        }
        // Every cell exercises at least one instrumented copy site, so the
        // copy-volume column must be populated across the whole matrix (in
        // whichever exchange mode this test runs under).
        for c in &cells {
            assert!(
                c.bytes_copied > 0,
                "{}/{} reported zero bytes_copied",
                c.workload,
                c.algo
            );
        }
    }

    #[test]
    fn snapshot_json_appends_as_valid_array() {
        let cfg = SnapConfig::smoke();
        let cells = vec![Cell {
            workload: "random",
            algo: "seq-sort",
            n: 10,
            chars: 100,
            wall: Duration::from_millis(5),
            mb_per_s: 20.0,
            chars_accessed: Some(123),
            wire_bytes_per_string: None,
            allocs: 7,
            alloc_bytes: 512,
            bytes_copied: 4096,
            comm_stall_ns: Some(1234),
            overlap_ratio: Some(0.25),
        }];
        let snap = snapshot_json("test", &cfg, &cells);
        let dir = std::env::temp_dir().join(format!("perfsnap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        append_snapshot(&path, &snap).unwrap();
        append_snapshot(&path, &snap).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("[\n"));
        assert!(body.ends_with("]\n"));
        assert_eq!(body.matches("\"label\": \"test\"").count(), 2);
        assert_eq!(body.matches("\"chars_accessed\": 123").count(), 2);
        assert_eq!(body.matches("\"wire_bytes_per_string\": null").count(), 2);
        assert_eq!(body.matches("\"bytes_copied\": 4096").count(), 2);
        assert_eq!(body.matches("\"comm_stall_ns\": 1234").count(), 2);
        assert_eq!(body.matches("\"overlap_ratio\": 0.250").count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dup_heavy_is_duplicate_dominated() {
        let set = generate_dup_heavy(0, 7, 2000);
        let mut uniq = std::collections::HashSet::new();
        for s in set.iter() {
            uniq.insert(s.to_vec());
        }
        assert!(uniq.len() < set.len() / 10, "{} uniques", uniq.len());
    }
}
