//! perfsnap — the tracked hot-path performance baseline.
//!
//! Runs a fixed matrix — four [`dss_gen::Workload`] rows ([`ROWS`]:
//! `D/N=0`, `skewed-D/N=0.5`, `DNAREADS`, `COMMONCRAWL`) × seq-sort /
//! par-sort / merge / par-merge / MS / MS-simple / PDMS / PDMS-Golomb /
//! hQuick / MS2L / MSML / PD-MS2L / PD-MSML / an exchange+merge
//! micro-cell — and reports, per cell:
//!
//! * **throughput** in MB of string characters per second (best of reps);
//! * **chars_accessed** of the local sorters (the paper's D-bounded work
//!   measure);
//! * for the distributed cells, which all run through [`measure`]:
//!   **wire_bytes_per_string** of the sort phases (the column that shows
//!   the PD grid variants shipping D rather than N characters),
//!   **modeled_ms** under the default α–β cost model, **comm_stall_ns**,
//!   and the **check** verdict — a failed check panics, so no snapshot
//!   records a wrong sort;
//! * **allocation counts** (calls + bytes) and **bytes_copied** of the
//!   measured region (see [`crate::counters`]).
//!
//! Snapshots are appended to `BENCH_perfsnap.json` so every PR has a
//! trajectory to beat. The numbers are host-dependent — compare only runs
//! from the same machine.

use crate::cli::Args;
use crate::counters::Counters;
use crate::harness::{fenced, measure, merge_traces, overlap_ratio, MeasureOpts, Measurement};
use dss_gen::Workload;
use dss_net::runner::{run_spmd, RunConfig};
use dss_net::trace;
use dss_sort::exchange::{ExchangeCodec, ExchangePayload, StringAllToAll};
use dss_sort::{Algorithm, ExchangeMode};
use dss_strkit::losertree::{parallel_lcp_merge_into, MergeRun};
use dss_strkit::sort::{par_sort_with_lcp, sort_with_lcp};
use dss_strkit::StringSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A workload row of the matrix: the `dss_gen` workload at a given number
/// of strings per PE (the sequential, merge and distributed cells size
/// the same row differently).
pub type Row = fn(usize) -> Workload;

/// The four rows, in report order.
pub const ROWS: [Row; 4] = [
    // Uniformly random 40-char strings over σ = 26: distinguishing
    // prefixes of ~log₂₆ n characters, so the sorters' character fetches
    // are few but maximally scattered — the cache-behavior probe.
    |n_per_pe| Workload::DnRatio {
        n_per_pe,
        len: 40,
        r: 0.0,
        sigma: 26,
    },
    // Skewed lengths: 20 % of the strings padded to 4× length.
    |n_per_pe| Workload::SkewedDnRatio {
        n_per_pe,
        len: 40,
        r: 0.5,
        sigma: 26,
    },
    // DNAREADS stand-in (σ = 4).
    |n_per_pe| Workload::Dna { n_per_pe },
    // COMMONCRAWL stand-in: duplicate-heavy Zipf web lines, the adversary
    // case for equality buckets and tie-breaking.
    |n_per_pe| Workload::Web { n_per_pe },
];

/// The distributed algorithms of the matrix, in report order.
const DIST_ALGORITHMS: [Algorithm; 9] = [
    Algorithm::Ms,
    Algorithm::MsSimple,
    Algorithm::Pdms,
    Algorithm::PdmsGolomb,
    Algorithm::HQuick,
    Algorithm::Ms2l,
    Algorithm::Msml,
    Algorithm::PdMs2l,
    Algorithm::PdMsml,
];

/// One measured cell of the matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: String,
    pub algo: &'static str,
    /// Global string count.
    pub n: usize,
    /// Global character count.
    pub chars: usize,
    /// Best-of-reps wall time of the measured region.
    pub wall: Duration,
    /// `chars / wall`, in MB/s.
    pub mb_per_s: f64,
    /// Local sorter work counter (sort cells only).
    pub chars_accessed: Option<u64>,
    /// Wire volume per string (distributed cells only).
    pub wire_bytes_per_string: Option<f64>,
    /// Modeled time under the default α–β cost model, in ms
    /// (distributed cells only).
    pub modeled_ms: Option<f64>,
    /// Allocator calls, bytes requested and bytes copied in the measured
    /// region (each the minimum over reps).
    pub counters: Counters,
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
    /// Whether the distributed checker ran (and, since a failure panics,
    /// passed).
    pub checked: bool,
}

impl Cell {
    /// A cell of a local kernel (no simulator, no wire).
    fn local(w: &Workload, algo: &'static str, set: &StringSet, wall: Duration) -> Self {
        Self {
            workload: w.label(),
            algo,
            n: set.len(),
            chars: set.num_chars(),
            wall,
            mb_per_s: throughput(set.num_chars(), wall),
            chars_accessed: None,
            wire_bytes_per_string: None,
            modeled_ms: None,
            counters: Counters::default(),
            comm_stall_ns: None,
            overlap_ratio: None,
            checked: false,
        }
    }

    /// Keeps the better observation of each measure across reps: the
    /// faster rep, and independently the minimum counters.
    fn best_of(self, other: Self) -> Self {
        let counters = self.counters.min(other.counters);
        let best = if other.wall < self.wall { other } else { self };
        Self { counters, ..best }
    }
}

/// Traces drained by the distributed cells, waiting for
/// [`take_recorded_trace`]. Cells drain the recorder per rep (the
/// overlap ratio must only see the cell's own spans), so the binary's
/// end-of-run export needs the drained pieces back.
static TRACES: Mutex<Vec<trace::Trace>> = Mutex::new(Vec::new());

/// Parks a cell's drained trace for [`take_recorded_trace`].
fn park_trace(t: trace::Trace) {
    TRACES.lock().expect("trace accumulator").push(t);
}

/// Everything recorded since the last call, merged into one trace for
/// the binary's Perfetto export: the per-cell drained traces plus
/// whatever is still buffered (sequential cells' sort tasks, the driver
/// thread).
pub fn take_recorded_trace() -> trace::Trace {
    let mut v = std::mem::take(&mut *TRACES.lock().expect("trace accumulator"));
    v.push(trace::take());
    merge_traces(v)
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
    /// Default matrix sizing (about ten seconds on a 2-core host).
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

fn throughput(chars: usize, wall: Duration) -> f64 {
    chars as f64 / 1e6 / wall.as_secs_f64().max(1e-9)
}

/// Measures the local sort of one `cfg.seq_n`-string shard at `threads`:
/// `seq-sort` (1 thread, the sequential driver) and `par-sort`
/// (`cfg.threads`, the work-stealing driver; output byte-identical to
/// `seq-sort`, only the wall time may differ). No simulator involved.
pub fn sort_cell(row: Row, cfg: &SnapConfig, threads: usize, algo: &'static str) -> Cell {
    let w = row(cfg.seq_n);
    let mut best: Option<Cell> = None;
    for _ in 0..cfg.reps {
        let mut set = w.generate(0, 1, cfg.seed);
        if cfg.truncate > 0 {
            for i in 0..set.len() {
                set.truncate_str(i, cfg.truncate);
            }
        }
        let c0 = Counters::now();
        let t0 = Instant::now();
        let (lcps, stats) = par_sort_with_lcp(&mut set, threads);
        let wall = t0.elapsed();
        let counters = Counters::since(c0);
        assert_eq!(lcps.len(), set.len());
        let cell = Cell {
            chars_accessed: Some(stats.chars_accessed),
            counters,
            ..Cell::local(&w, algo, &set, wall)
        };
        best = Some(match best {
            None => cell,
            Some(b) => b.best_of(cell),
        });
    }
    best.expect("reps >= 1")
}

/// Measures a local k-way LCP merge of `cfg.p` pre-sorted runs drawn from
/// the row, at the given thread count — `merge` (1 thread, the
/// sequential loser tree) and `par-merge` (`cfg.threads`, the range-split
/// parallel tree) rows. No simulator involved: this is the pure merge
/// kernel both exchange paths route through.
pub fn merge_cell(row: Row, cfg: &SnapConfig, threads: usize, algo: &'static str) -> Cell {
    let k = cfg.p.max(2);
    let w = row(cfg.seq_n / k);
    let runs_data: Vec<(StringSet, Vec<u32>)> = (0..k)
        .map(|r| {
            let mut set = w.generate(r, k, cfg.seed ^ 0x3E6);
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
    let mut best: Option<Cell> = None;
    for _ in 0..cfg.reps {
        let mut out = StringSet::new();
        let c0 = Counters::now();
        let t0 = Instant::now();
        let merged = parallel_lcp_merge_into(&views, &mut out, threads);
        let wall = t0.elapsed();
        let counters = Counters::since(c0);
        assert_eq!(merged.lcps.as_ref().map(Vec::len), Some(out.len()));
        let cell = Cell {
            counters,
            ..Cell::local(&w, algo, &out, wall)
        };
        best = Some(match best {
            None => cell,
            Some(b) => b.best_of(cell),
        });
    }
    best.expect("reps >= 1")
}

/// Measures one distributed sorter through [`measure`], at `cfg.threads`
/// per PE. Panics if the distributed check fails.
pub fn dist_cell(row: Row, alg: Algorithm, cfg: &SnapConfig) -> Cell {
    let opts = MeasureOpts {
        reps: cfg.reps,
        // The simulator keeps its default RNG seed (only the workload
        // takes `cfg.seed`), so rows stay comparable with earlier
        // snapshots.
        run: RunConfig {
            threads_per_pe: cfg.threads,
            recv_timeout: Duration::from_secs(600),
            ..RunConfig::default()
        },
        ..MeasureOpts::new(cfg.seed)
    };
    // The recorded `config.threads`, not the `DSS_THREADS` default.
    let sorter = alg.instance_with(ExchangeMode::default(), cfg.threads);
    let mut m = measure(alg.label(), &*sorter, &row(cfg.dist_n_per_pe), cfg.p, &opts);
    if let Some(Err(e)) = &m.check {
        panic!(
            "perfsnap: {} on {} failed the distributed check: {e}",
            m.label, m.workload
        );
    }
    if let Some(t) = m.trace.take() {
        park_trace(t);
    }
    Cell::from(m)
}

impl From<Measurement> for Cell {
    fn from(m: Measurement) -> Self {
        Self {
            wire_bytes_per_string: Some(m.bytes_per_string()),
            modeled_ms: Some(m.modeled().as_secs_f64() * 1e3),
            mb_per_s: throughput(m.chars, m.wall),
            comm_stall_ns: Some(m.stats.totals().stall_ns),
            workload: m.workload,
            algo: m.label,
            n: m.n,
            chars: m.chars,
            wall: m.wall,
            chars_accessed: None,
            counters: m.counters,
            overlap_ratio: m.overlap_ratio,
            checked: m.check.is_some(),
        }
    }
}

/// Measures the exchange+merge micro-cell: local sort (untimed), one
/// untimed warmup exchange that brings the engine's pooled decode scratch
/// to steady state, then a [`fenced`] fused
/// [`StringAllToAll::exchange_merge_by_splitters`] region — the same
/// entry point the merge-based algorithms use, so in pipelined mode the
/// cell exercises the rope-backed incremental cascade, and in blocking
/// mode the k-way loser-tree merge.
pub fn exchange_cell(row: Row, cfg: &SnapConfig) -> Cell {
    let (w, sample_w) = (row(cfg.dist_n_per_pe), row(cfg.dist_n_per_pe.min(4096)));
    let mut best: Option<Cell> = None;
    for _ in 0..cfg.reps {
        let rc = RunConfig {
            recv_timeout: Duration::from_secs(600),
            ..RunConfig::default()
        };
        let res = run_spmd(cfg.p, rc, |comm| {
            let p = comm.size();
            let mut set = w.generate(comm.rank(), p, cfg.seed);
            let (lcps, _) = sort_with_lcp(&mut set);
            // Global splitters, computed identically on every PE from a
            // deterministic out-of-band sample shard.
            let mut sample = sample_w.generate(p, p + 1, cfg.seed ^ 0x515);
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
            let (merged, wall, counters) = fenced(comm, || {
                engine.exchange_merge_by_splitters(comm, &payload, &splitters, false, None)
            });
            (merged.set.len(), merged.set.num_chars(), wall, counters)
        });
        let overlap = trace::enabled().then(trace::take).and_then(|t| {
            let ratio = overlap_ratio(&t);
            park_trace(t);
            ratio
        });
        let n = res.values.iter().map(|v| v.0).sum();
        let chars = res.values.iter().map(|v| v.1).sum();
        let wall = res.values.iter().map(|v| v.2).max().expect("p >= 1");
        let cell = Cell {
            workload: w.label(),
            algo: "exchange",
            n,
            chars,
            wall,
            mb_per_s: throughput(chars, wall),
            chars_accessed: None,
            wire_bytes_per_string: None,
            modeled_ms: None,
            counters: res.values[0].3,
            comm_stall_ns: Some(res.stats.totals().stall_ns),
            overlap_ratio: overlap,
            checked: false,
        };
        best = Some(match best {
            None => cell,
            Some(b) => b.best_of(cell),
        });
    }
    best.expect("reps >= 1")
}

/// Runs the whole matrix.
pub fn run_snapshot(cfg: &SnapConfig) -> Vec<Cell> {
    run_snapshot_filtered(cfg, "")
}

/// [`run_snapshot`] restricted to cells whose `workload:algo` id contains
/// `filter` (empty = all). For quick iteration: `--only D/N=0:seq-sort`.
pub fn run_snapshot_filtered(cfg: &SnapConfig, filter: &str) -> Vec<Cell> {
    let mut cells = Vec::new();
    for row in ROWS {
        let label = row(0).label();
        let want = |algo: &str| {
            let id = format!("{label}:{algo}");
            let hit = filter.is_empty() || id.contains(filter);
            if hit {
                eprintln!("perfsnap: {label} / {algo}");
            }
            hit
        };
        if want("seq-sort") {
            cells.push(sort_cell(row, cfg, 1, "seq-sort"));
        }
        if want("par-sort") {
            cells.push(sort_cell(row, cfg, cfg.threads, "par-sort"));
        }
        if want("merge") {
            cells.push(merge_cell(row, cfg, 1, "merge"));
        }
        if want("par-merge") {
            cells.push(merge_cell(row, cfg, cfg.threads, "par-merge"));
        }
        for alg in DIST_ALGORITHMS {
            if want(alg.label()) {
                cells.push(dist_cell(row, alg, cfg));
            }
        }
        if want("exchange") {
            cells.push(exchange_cell(row, cfg));
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
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "      {{\"workload\": \"{}\", \"algo\": \"{}\", \"n\": {}, \"chars\": {}, \
             \"wall_ms\": {}, \"throughput_mb_s\": {}, \"chars_accessed\": {}, \
             \"wire_bytes_per_string\": {}, \"modeled_ms\": {}, \"allocs\": {}, \
             \"alloc_bytes\": {}, \"bytes_copied\": {}, \"comm_stall_ns\": {}, \
             \"overlap_ratio\": {}, \"check\": {}}}{}\n",
            json_escape(&c.workload),
            c.algo,
            c.n,
            c.chars,
            fmt_f64(c.wall.as_secs_f64() * 1e3),
            fmt_f64(c.mb_per_s),
            opt(c.chars_accessed.map(|v| v.to_string())),
            opt(c.wire_bytes_per_string.map(fmt_f64)),
            opt(c.modeled_ms.map(fmt_f64)),
            c.counters.allocs,
            c.counters.alloc_bytes,
            c.counters.bytes_copied,
            opt(c.comm_stall_ns.map(|v| v.to_string())),
            opt(c.overlap_ratio.map(fmt_f64)),
            if c.checked { "\"ok\"" } else { "null" },
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
        let cells = run_snapshot(&cfg);
        // seq-sort + par-sort + merge + par-merge + 9 distributed
        // algorithms + the exchange micro-cell.
        assert_eq!(cells.len(), ROWS.len() * (4 + DIST_ALGORITHMS.len() + 1));
        let labels: Vec<String> = ROWS.iter().map(|row| row(0).label()).collect();
        assert_eq!(
            labels,
            ["D/N=0", "skewed-D/N=0.5", "DNAREADS", "COMMONCRAWL"]
        );
        for c in &cells {
            assert!(c.n > 0, "{}/{} empty", c.workload, c.algo);
            assert!(c.mb_per_s > 0.0);
        }
        // Sort cells report work counters; distributed cells report
        // volume, modeled time and a passed check.
        assert!(cells
            .iter()
            .filter(|c| c.algo.ends_with("-sort"))
            .all(|c| c.chars_accessed.is_some()));
        for alg in DIST_ALGORITHMS {
            for c in cells.iter().filter(|c| c.algo == alg.label()) {
                assert!(c.wire_bytes_per_string.unwrap_or(0.0) > 0.0);
                assert!(c.modeled_ms.unwrap_or(0.0) > 0.0);
                assert!(c.checked, "{}/{} unchecked", c.workload, c.algo);
            }
        }
        // Every cell exercises at least one instrumented copy site, so the
        // copy-volume column must be populated across the whole matrix (in
        // whichever exchange mode this test runs under).
        for c in &cells {
            assert!(
                c.counters.bytes_copied > 0,
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
            workload: "D/N=0".into(),
            algo: "MS",
            n: 10,
            chars: 100,
            wall: Duration::from_millis(5),
            mb_per_s: 20.0,
            chars_accessed: None,
            wire_bytes_per_string: Some(12.5),
            modeled_ms: Some(1.25),
            counters: Counters {
                allocs: 7,
                alloc_bytes: 512,
                bytes_copied: 4096,
            },
            comm_stall_ns: Some(1234),
            overlap_ratio: Some(0.25),
            checked: true,
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
        assert_eq!(body.matches("\"workload\": \"D/N=0\"").count(), 2);
        assert_eq!(body.matches("\"chars_accessed\": null").count(), 2);
        assert_eq!(body.matches("\"wire_bytes_per_string\": 12.500").count(), 2);
        assert_eq!(body.matches("\"modeled_ms\": 1.250").count(), 2);
        assert_eq!(body.matches("\"allocs\": 7,").count(), 2);
        assert_eq!(body.matches("\"bytes_copied\": 4096").count(), 2);
        assert_eq!(body.matches("\"comm_stall_ns\": 1234").count(), 2);
        assert_eq!(body.matches("\"overlap_ratio\": 0.250").count(), 2);
        assert_eq!(body.matches("\"check\": \"ok\"").count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
