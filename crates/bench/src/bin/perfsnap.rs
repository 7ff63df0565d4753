//! `perfsnap` — run the fixed hot-path workload matrix and append the
//! snapshot to `BENCH_perfsnap.json`.
//!
//! ```text
//! cargo run --release --bin perfsnap -- --label "my change"
//! cargo run --release --bin perfsnap -- --smoke          # CI-sized, stdout only
//! ```
//!
//! Flags: `--label STR`, `--out FILE` (default `BENCH_perfsnap.json`),
//! `--smoke` (tiny cells, no file write unless `--out` given),
//! `--mode blocking|pipelined` (forces the exchange mode for the whole
//! run, recorded in the snapshot's `config.exchange_mode`),
//! `--threads N` (forces `DSS_THREADS` for the whole run and sizes the
//! `par-sort`/`par-merge` cells, recorded in `config.threads`),
//! `--trace FILE` (records a span trace of the whole run and writes it
//! as Chrome trace-event JSON, loadable in Perfetto; also fills the
//! cells' `overlap_ratio` column), plus the sizing overrides `--seq-n`,
//! `--dist-n`, `--pes`, `--reps`, `--seed`.
//!
//! `--only SUBSTR` runs only the cells whose `workload:algo` id contains
//! it (e.g. `--only D/N=0:seq-sort`, `--only COMMONCRAWL:`). A
//! distributed cell whose output fails the distributed check panics.
//! Allocator traffic comes from the counting global allocator the
//! `dss_bench` library installs.

use dss_bench::cli::Args;
use dss_bench::perfsnap::{
    append_snapshot, run_snapshot_filtered, snapshot_json, take_recorded_trace, SnapConfig,
};
use dss_net::trace;
use std::path::PathBuf;

fn main() {
    let args = Args::parse();
    // Force the exchange mode before anything reads the (cached) env
    // knob; the effective mode lands in the snapshot's config object. A
    // typo must not silently benchmark the blocking fallback.
    let mode = args.get_str("mode", "");
    if !mode.is_empty() {
        assert!(
            mode.eq_ignore_ascii_case("blocking") || mode.eq_ignore_ascii_case("pipelined"),
            "--mode must be 'blocking' or 'pipelined', got '{mode}'"
        );
        std::env::set_var("DSS_EXCHANGE_MODE", &mode);
    }
    // Same discipline for the thread knob: validate and export before the
    // first `threads_from_env` call caches it, so the distributed cells'
    // default-configured sorters run at the requested thread count too.
    let threads = args.get_str("threads", "");
    if !threads.is_empty() {
        assert!(
            threads.trim().parse::<usize>().is_ok_and(|t| t >= 1),
            "--threads must be a positive integer, got '{threads}'"
        );
        std::env::set_var("DSS_THREADS", threads.trim());
    }
    let cfg = SnapConfig::from_args(&args);
    let label = args.get_str(
        "label",
        if args.has("smoke") {
            "smoke"
        } else {
            "unlabeled"
        },
    );
    let only = args.get_str("only", "");
    // Tracing must be on before the first cell records a span; the
    // `DSS_TRACE` knob (applied by the first `run_spmd`) composes with
    // this — `--trace` just forces it on and names the export file.
    let trace_out = args.get_str("trace", "");
    if !trace_out.is_empty() {
        trace::enable(trace::DEFAULT_SPAN_CAP);
    }
    let cells = run_snapshot_filtered(&cfg, &only);
    let snap = snapshot_json(&label, &cfg, &cells);

    eprintln!();
    eprintln!(
        "{:<15} {:<11} {:>9} {:>11} {:>13} {:>14} {:>12} {:>10} {:>10} {:>13} {:>9} {:>7}",
        "workload",
        "algo",
        "n",
        "wall_ms",
        "MB/s",
        "chars_accessed",
        "wire_B/str",
        "model_ms",
        "allocs",
        "bytes_copied",
        "stall_ms",
        "overlap"
    );
    let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
    for c in &cells {
        eprintln!(
            "{:<15} {:<11} {:>9} {:>11.2} {:>13.2} {:>14} {:>12} {:>10} {:>10} {:>13} {:>9} {:>7}",
            c.workload,
            c.algo,
            c.n,
            c.wall.as_secs_f64() * 1e3,
            c.mb_per_s,
            opt(c.chars_accessed.map(|v| v.to_string())),
            opt(c.wire_bytes_per_string.map(|v| format!("{v:.1}"))),
            opt(c.modeled_ms.map(|v| format!("{v:.2}"))),
            c.counters.allocs,
            c.counters.bytes_copied,
            opt(c.comm_stall_ns.map(|v| format!("{:.2}", v as f64 / 1e6))),
            opt(c.overlap_ratio.map(|v| format!("{v:.3}"))),
        );
    }

    if !trace_out.is_empty() {
        let merged = take_recorded_trace();
        let json = trace::chrome_trace_json(&merged).expect("trace streams must balance");
        std::fs::write(&trace_out, &json).expect("write trace file");
        eprintln!(
            "perfsnap: wrote Perfetto trace ({} events, {} dropped) to {trace_out}",
            merged.len(),
            merged.dropped
        );
    }

    let out = args.get_str("out", "");
    if out.is_empty() && args.has("smoke") {
        println!("[\n{snap}\n]");
        return;
    }
    let path = PathBuf::from(if out.is_empty() {
        "BENCH_perfsnap.json".to_string()
    } else {
        out
    });
    append_snapshot(&path, &snap).expect("write snapshot");
    eprintln!(
        "perfsnap: appended snapshot \"{label}\" to {}",
        path.display()
    );
}
