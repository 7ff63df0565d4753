//! §VII-E — the "further experiments" bundle:
//!
//! * `--exp suffix`   — the Wikipedia suffix instance (D/N ≈ 10⁻³…10⁻⁴):
//!   PDMS is reported ~30× faster than everything else at p = 160.
//! * `--exp skewed`   — skewed D/N instances (20 % of strings padded to
//!   4× length): algorithm ranking unchanged; character-based sampling
//!   rescues the MS variants' load balance.
//! * `--exp sampling` — string- vs character- vs dist-prefix-based
//!   sampling ablation on uniform and skewed inputs.
//! * `--exp wiki`     — the Wikipedia line instance (results ≈ CommonCrawl).
//! * `--exp ablation` — extension knobs: Golomb coding volume, hypercube
//!   (latency-optimal) fingerprint routing, delta-coded LCPs (§VI-B).
//! * `--exp all`      — everything.
//!
//! Usage: cargo run --release -p dss-bench --bin further -- --exp all

use dss_bench::cli::Args;
use dss_bench::harness::run_repeated_with_model;
use dss_bench::{print_table, write_csv, ExperimentResult};
use dss_dedup::prefix_doubling::PrefixDoublingConfig;
use dss_gen::Workload;
use dss_net::CostModel;
use dss_sort::partition::{PartitionConfig, SamplingPolicy};
use dss_sort::{Algorithm, ExchangeCodec, MergeSort, MergeSortConfig};
use std::path::PathBuf;

fn paper_algorithms(
    w: &Workload,
    pes: &[usize],
    seed: u64,
    check: bool,
    reps: usize,
    model: &CostModel,
) -> Vec<ExperimentResult> {
    let mut out = Vec::new();
    for &p in pes {
        for alg in Algorithm::all_paper() {
            let res = run_repeated_with_model(
                alg.label(),
                &*alg.instance(),
                w,
                p,
                seed,
                check,
                reps,
                model,
            );
            eprintln!(
                "{:<14} p={p:<3} {:<12} modeled={:>9.2}ms bytes/str={:>8.1} {}",
                res.workload,
                res.algorithm,
                res.modeled.as_secs_f64() * 1e3,
                res.bytes_per_string,
                if res.check_ok { "ok" } else { "CHECK-FAIL" },
            );
            out.push(res);
        }
    }
    out
}

fn exp_suffix(
    pes: &[usize],
    seed: u64,
    check: bool,
    reps: usize,
    model: &CostModel,
) -> Vec<ExperimentResult> {
    let w = Workload::Suffix {
        text_len: 6000,
        cap: 500,
    };
    let results = paper_algorithms(&w, pes, seed, check, reps, model);
    let p = *pes.last().expect("non-empty");
    let pdms = results
        .iter()
        .filter(|r| r.p == p && r.algorithm.starts_with("PDMS"))
        .map(|r| r.modeled.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let others = results
        .iter()
        .filter(|r| r.p == p && !r.algorithm.starts_with("PDMS"))
        .map(|r| r.modeled.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    println!(
        "suffix instance at p={p}: PDMS vs best non-PDMS = {:.1}x (paper: ~30x at p=160)",
        others / pdms
    );
    results
}

fn exp_skewed(
    pes: &[usize],
    seed: u64,
    check: bool,
    reps: usize,
    model: &CostModel,
) -> Vec<ExperimentResult> {
    let w = Workload::SkewedDnRatio {
        n_per_pe: 800,
        len: 100,
        r: 0.5,
        sigma: 16,
    };
    paper_algorithms(&w, pes, seed, check, reps, model)
}

fn exp_sampling(
    pes: &[usize],
    seed: u64,
    check: bool,
    reps: usize,
    model: &CostModel,
) -> Vec<ExperimentResult> {
    // MS with string- vs character-based sampling on uniform and skewed
    // inputs; PDMS additionally with dist-prefix-based sampling.
    let uniform = Workload::DnRatio {
        n_per_pe: 800,
        len: 100,
        r: 0.5,
        sigma: 16,
    };
    let skewed = Workload::SkewedDnRatio {
        n_per_pe: 800,
        len: 100,
        r: 0.5,
        sigma: 16,
    };
    let ms_strings = MergeSort::default();
    let ms_chars = MergeSort::with_config(MergeSortConfig {
        partition: PartitionConfig {
            policy: SamplingPolicy::Chars,
            ..PartitionConfig::default()
        },
        ..MergeSortConfig::default()
    });
    let pdms_dist = MergeSort::with_config(MergeSortConfig {
        prefix: Some(PrefixDoublingConfig::default()),
        partition: PartitionConfig {
            policy: SamplingPolicy::DistPrefix,
            ..PartitionConfig::default()
        },
        ..MergeSortConfig::default()
    });
    let mut out = Vec::new();
    for w in [&uniform, &skewed] {
        for &p in pes {
            out.push(run_repeated_with_model(
                "MS/str-sample",
                &ms_strings,
                w,
                p,
                seed,
                check,
                reps,
                model,
            ));
            out.push(run_repeated_with_model(
                "MS/char-sample",
                &ms_chars,
                w,
                p,
                seed,
                check,
                reps,
                model,
            ));
            out.push(run_repeated_with_model(
                "PDMS/dist-sample",
                &pdms_dist,
                w,
                p,
                seed,
                check,
                reps,
                model,
            ));
        }
    }
    for r in &out {
        eprintln!(
            "{:<16} p={:<3} {:<16} modeled={:>9.2}ms imbalance-sensitive",
            r.workload,
            r.p,
            r.algorithm,
            r.modeled.as_secs_f64() * 1e3
        );
    }
    out
}

fn exp_wiki(
    pes: &[usize],
    seed: u64,
    check: bool,
    reps: usize,
    model: &CostModel,
) -> Vec<ExperimentResult> {
    let w = Workload::TextLines { n_per_pe: 800 };
    paper_algorithms(&w, pes, seed, check, reps, model)
}

fn exp_ablation(
    pes: &[usize],
    seed: u64,
    check: bool,
    reps: usize,
    model: &CostModel,
) -> Vec<ExperimentResult> {
    // Extension knobs on a low-D/N input where they matter most.
    let w = Workload::DnRatio {
        n_per_pe: 800,
        len: 200,
        r: 0.1,
        sigma: 16,
    };
    let pdms_hypercube = MergeSort::with_config(MergeSortConfig {
        prefix: Some(PrefixDoublingConfig {
            latency_optimal: true,
            ..Default::default()
        }),
        ..MergeSortConfig::default()
    });
    let pdms_slow_growth = MergeSort::with_config(MergeSortConfig {
        prefix: Some(PrefixDoublingConfig {
            growth_num: 3,
            growth_den: 2,
            ..Default::default()
        }),
        ..MergeSortConfig::default()
    });
    let ms_delta = MergeSort::with_config(MergeSortConfig {
        codec: ExchangeCodec::LcpDelta,
        ..MergeSortConfig::default()
    });
    let pdms_delta = MergeSort::with_config(MergeSortConfig {
        prefix: Some(PrefixDoublingConfig::default()),
        codec: ExchangeCodec::LcpDelta,
        ..MergeSortConfig::default()
    });
    let mut out = Vec::new();
    for &p in pes {
        out.push(run_repeated_with_model(
            "MS",
            &MergeSort::default(),
            &w,
            p,
            seed,
            check,
            reps,
            model,
        ));
        out.push(run_repeated_with_model(
            "MS/delta-lcp",
            &ms_delta,
            &w,
            p,
            seed,
            check,
            reps,
            model,
        ));
        out.push(run_repeated_with_model(
            "PDMS",
            &*Algorithm::Pdms.instance(),
            &w,
            p,
            seed,
            check,
            reps,
            model,
        ));
        out.push(run_repeated_with_model(
            "PDMS-Golomb",
            &*Algorithm::PdmsGolomb.instance(),
            &w,
            p,
            seed,
            check,
            reps,
            model,
        ));
        out.push(run_repeated_with_model(
            "PDMS/hypercube",
            &pdms_hypercube,
            &w,
            p,
            seed,
            check,
            reps,
            model,
        ));
        out.push(run_repeated_with_model(
            "PDMS/eps=0.5",
            &pdms_slow_growth,
            &w,
            p,
            seed,
            check,
            reps,
            model,
        ));
        out.push(run_repeated_with_model(
            "PDMS/delta-lcp",
            &pdms_delta,
            &w,
            p,
            seed,
            check,
            reps,
            model,
        ));
    }
    for r in &out {
        eprintln!(
            "ablation p={:<3} {:<16} modeled={:>9.2}ms bytes/str={:>8.1}",
            r.p,
            r.algorithm,
            r.modeled.as_secs_f64() * 1e3,
            r.bytes_per_string
        );
    }
    out
}

fn main() {
    let args = Args::parse();
    let pes = args.get_usize_list("pes", &[4, 8, 16]);
    let seed: u64 = args.get("seed", 20260611);
    let check = !args.has("no-check");
    let exp = args.get_str("exp", "all");
    let reps: usize = args.get("reps", 3);
    let model = CostModel {
        alpha_ns: args.get("alpha-us", 5.0f64) * 1e3,
        beta_ns_per_byte: args.get("beta-ns", 1.0f64),
    };
    let out: PathBuf = PathBuf::from(args.get_str("out", "results/further.csv"));

    let mut results = Vec::new();
    if exp == "suffix" || exp == "all" {
        results.extend(exp_suffix(&pes, seed, check, reps, &model));
    }
    if exp == "skewed" || exp == "all" {
        results.extend(exp_skewed(&pes, seed, check, reps, &model));
    }
    if exp == "sampling" || exp == "all" {
        results.extend(exp_sampling(&pes, seed, check, reps, &model));
    }
    if exp == "wiki" || exp == "all" {
        results.extend(exp_wiki(&pes, seed, check, reps, &model));
    }
    if exp == "ablation" || exp == "all" {
        results.extend(exp_ablation(&pes, seed, check, reps, &model));
    }
    println!(
        "{}",
        print_table(&format!("§VII-E further experiments ({exp})"), &results)
    );
    if let Err(e) = write_csv(&out, &results) {
        eprintln!("failed to write {}: {e}", out.display());
    } else {
        println!("\nwrote {}", out.display());
    }
}
