//! Fig. 4 — weak scaling on the D/N family.
//!
//! Paper grid: five inputs with r = D/N ∈ {0, 0.25, 0.5, 0.75, 1.0},
//! 500 000 strings of length 500 per PE, p = 20…1280 cores. Simulator
//! default: 1 000 strings of length 100 per PE, p = 2…32 (override with
//! `--n-per-pe`, `--len`, `--pes a,b,c`). Both panels are reproduced:
//! modeled time (top) and bytes sent per string (bottom, exact).
//!
//! Usage:
//!   cargo run --release -p dss-bench --bin fig4 -- [--pes 2,4,8,16,32]
//!       [--n-per-pe 1000] [--len 100] [--sigma 16] [--no-check] [--out results/fig4.csv]

use dss_bench::cli::Args;
use dss_bench::harness::run_repeated_with_model;
use dss_bench::table::speedup_at;
use dss_bench::{print_table, write_csv};
use dss_gen::Workload;
use dss_net::CostModel;
use dss_sort::Algorithm;
use std::path::PathBuf;

fn main() {
    let args = Args::parse();
    let pes = args.get_usize_list("pes", &[2, 4, 8, 16, 32]);
    let n_per_pe: usize = args.get("n-per-pe", 1000);
    let len: usize = args.get("len", 100);
    let sigma: u8 = args.get("sigma", 16);
    let check = !args.has("no-check");
    let seed: u64 = args.get("seed", 20260611);
    let reps: usize = args.get("reps", 3);
    // α–β cost model, calibratable from the command line.
    let model = CostModel {
        alpha_ns: args.get("alpha-us", 5.0f64) * 1e3,
        beta_ns_per_byte: args.get("beta-ns", 1.0f64),
    };
    let out: PathBuf = PathBuf::from(args.get_str("out", "results/fig4.csv"));

    let ratios = [0.0f64, 0.25, 0.5, 0.75, 1.0];
    let mut results = Vec::new();
    for &r in &ratios {
        let w = Workload::DnRatio {
            n_per_pe,
            len,
            r,
            sigma,
        };
        for &p in &pes {
            for alg in Algorithm::all_paper() {
                let res = run_repeated_with_model(
                    alg.label(),
                    &*alg.instance(),
                    &w,
                    p,
                    seed,
                    check,
                    reps,
                    &model,
                );
                eprintln!(
                    "r={r:<4} p={p:<3} {:<12} modeled={:>9.2}ms bytes/str={:>8.1} {}",
                    res.algorithm,
                    res.modeled.as_secs_f64() * 1e3,
                    res.bytes_per_string,
                    if res.check_ok { "ok" } else { "CHECK-FAIL" },
                );
                results.push(res);
            }
        }
    }
    println!(
        "{}",
        print_table(
            &format!("Fig. 4 — weak scaling, D/N inputs ({n_per_pe} strings x {len} chars per PE)"),
            &results
        )
    );
    // Headline: "on the largest configuration the best shown algorithm is
    // 5.3–8.6× faster than FKmerge".
    let p_max = *pes.last().expect("non-empty PE list");
    println!("Speedup of best(PDMS, PDMS-Golomb, MS) over FKmerge at p={p_max}:");
    for &r in &ratios {
        let w = format!("D/N={r}");
        if let Some(s) = speedup_at(
            &results,
            p_max,
            &w,
            "FKmerge",
            &["PDMS", "PDMS-Golomb", "MS"],
        ) {
            println!("  {w:<10} {s:.1}x");
        }
    }
    if let Err(e) = write_csv(&out, &results) {
        eprintln!("failed to write {}: {e}", out.display());
    } else {
        println!("\nwrote {}", out.display());
    }
}
