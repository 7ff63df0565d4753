//! Fig. 5 — strong scaling on COMMONCRAWL (left) and DNAREADS (right).
//!
//! Paper grid: fixed real-world inputs (82 GB / 125 GB), p = 160…1280.
//! Simulator default: fixed synthetic instances matching the paper's
//! instance statistics (see dss-gen), total 24 000 strings, p = 4…32.
//! Both panels are reproduced: modeled time and bytes sent per string.
//!
//! Usage:
//!   cargo run --release -p dss-bench --bin fig5 -- [--input web|dna|both]
//!       [--pes 4,8,16,32] [--n-total 24000] [--no-check]
//!       [--reps 3] [--seed 20260611] [--alpha-us 5] [--beta-ns 1]

use dss_bench::cli::Args;
use dss_bench::table::speedup_at;
use dss_bench::{measure, print_table, write_csv, MeasureOpts, Measurement};
use dss_gen::Workload;
use dss_sort::Algorithm;
use std::path::PathBuf;

fn main() {
    let args = Args::parse();
    let pes = args.get_usize_list("pes", &[4, 8, 16, 32]);
    let n_total: usize = args.get("n-total", 24_000);
    let input = args.get_str("input", "both");
    assert!(
        matches!(input.as_str(), "web" | "dna" | "both"),
        "--input must be web, dna or both, got '{input}'"
    );
    let opts = MeasureOpts::from_args(&args);
    let out: PathBuf = PathBuf::from(args.get_str("out", "results/fig5.csv"));

    let mut results = Vec::new();
    let run_panel = |name: &str, results: &mut Vec<Measurement>| {
        for &p in &pes {
            let w = match name {
                "web" => Workload::Web {
                    n_per_pe: n_total / p,
                },
                _ => Workload::Dna {
                    n_per_pe: n_total / p,
                },
            };
            for alg in Algorithm::all_paper() {
                let res = measure(alg.label(), &*alg.instance(), &w, p, &opts);
                eprintln!(
                    "{:<12} p={p:<3} {:<12} modeled={:>9.2}ms bytes/str={:>8.1} {}",
                    res.workload,
                    res.label,
                    res.modeled().as_secs_f64() * 1e3,
                    res.bytes_per_string(),
                    res.check_label(),
                );
                results.push(res);
            }
        }
    };
    if input == "web" || input == "both" {
        run_panel("web", &mut results);
    }
    if input == "dna" || input == "both" {
        run_panel("dna", &mut results);
    }

    println!(
        "{}",
        print_table(
            &format!("Fig. 5 — strong scaling ({n_total} strings total)"),
            &results
        )
    );
    // Headline ratios of §VII-D for COMMONCRAWL at large p:
    //   PDMS 5.4–6.1× vs hQuick; MS 4.5–4.6× vs hQuick; LCP algorithms
    //   2.6–3.5× vs MS-simple.
    let p_max = *pes.last().expect("non-empty PE list");
    for w in ["COMMONCRAWL", "DNAREADS"] {
        if !results.iter().any(|r| r.workload == w) {
            continue;
        }
        println!("[{w}] at p={p_max}:");
        if let Some(s) = speedup_at(&results, p_max, w, "hQuick", &["PDMS", "PDMS-Golomb"]) {
            println!("  PDMS vs hQuick      {s:.1}x   (paper CC: 5.4-6.1x)");
        }
        if let Some(s) = speedup_at(&results, p_max, w, "hQuick", &["MS"]) {
            println!("  MS vs hQuick        {s:.1}x   (paper CC: 4.5-4.6x)");
        }
        if let Some(s) = speedup_at(
            &results,
            p_max,
            w,
            "MS-simple",
            &["MS", "PDMS", "PDMS-Golomb"],
        ) {
            println!("  LCP-algs vs MS-simple {s:.1}x (paper CC: 2.6-3.5x)");
        }
    }
    if let Err(e) = write_csv(&out, &results) {
        eprintln!("failed to write {}: {e}", out.display());
    } else {
        println!("\nwrote {}", out.display());
    }
}
