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
use dss_bench::{measure, print_table, write_csv, MeasureOpts, Measurement};
use dss_dedup::prefix_doubling::PrefixDoublingConfig;
use dss_gen::Workload;
use dss_sort::partition::{PartitionConfig, SamplingPolicy};
use dss_sort::{Algorithm, ExchangeCodec, MergeSort, MergeSortConfig};
use std::path::PathBuf;

fn paper_algorithms(w: &Workload, pes: &[usize], opts: &MeasureOpts) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &p in pes {
        for alg in Algorithm::all_paper() {
            let res = measure(alg.label(), &*alg.instance(), w, p, opts);
            eprintln!(
                "{:<14} p={p:<3} {:<12} modeled={:>9.2}ms bytes/str={:>8.1} {}",
                res.workload,
                res.label,
                res.modeled().as_secs_f64() * 1e3,
                res.bytes_per_string(),
                res.check_label(),
            );
            out.push(res);
        }
    }
    out
}

fn exp_suffix(pes: &[usize], opts: &MeasureOpts) -> Vec<Measurement> {
    let w = Workload::Suffix {
        text_len: 6000,
        cap: 500,
    };
    let results = paper_algorithms(&w, pes, opts);
    let p = *pes.last().expect("non-empty");
    let pdms = results
        .iter()
        .filter(|r| r.p == p && r.label.starts_with("PDMS"))
        .map(|r| r.modeled().as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let others = results
        .iter()
        .filter(|r| r.p == p && !r.label.starts_with("PDMS"))
        .map(|r| r.modeled().as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    println!(
        "suffix instance at p={p}: PDMS vs best non-PDMS = {:.1}x (paper: ~30x at p=160)",
        others / pdms
    );
    results
}

fn exp_skewed(pes: &[usize], opts: &MeasureOpts) -> Vec<Measurement> {
    let w = Workload::SkewedDnRatio {
        n_per_pe: 800,
        len: 100,
        r: 0.5,
        sigma: 16,
    };
    paper_algorithms(&w, pes, opts)
}

fn exp_sampling(pes: &[usize], opts: &MeasureOpts) -> Vec<Measurement> {
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
            out.push(measure("MS/str-sample", &ms_strings, w, p, opts));
            out.push(measure("MS/char-sample", &ms_chars, w, p, opts));
            out.push(measure("PDMS/dist-sample", &pdms_dist, w, p, opts));
        }
    }
    for r in &out {
        eprintln!(
            "{:<16} p={:<3} {:<16} modeled={:>9.2}ms imbalance-sensitive",
            r.workload,
            r.p,
            r.label,
            r.modeled().as_secs_f64() * 1e3
        );
    }
    out
}

fn exp_wiki(pes: &[usize], opts: &MeasureOpts) -> Vec<Measurement> {
    let w = Workload::TextLines { n_per_pe: 800 };
    paper_algorithms(&w, pes, opts)
}

fn exp_ablation(pes: &[usize], opts: &MeasureOpts) -> Vec<Measurement> {
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
        out.push(measure("MS", &MergeSort::default(), &w, p, opts));
        out.push(measure("MS/delta-lcp", &ms_delta, &w, p, opts));
        out.push(measure("PDMS", &*Algorithm::Pdms.instance(), &w, p, opts));
        out.push(measure(
            "PDMS-Golomb",
            &*Algorithm::PdmsGolomb.instance(),
            &w,
            p,
            opts,
        ));
        out.push(measure("PDMS/hypercube", &pdms_hypercube, &w, p, opts));
        out.push(measure("PDMS/eps=0.5", &pdms_slow_growth, &w, p, opts));
        out.push(measure("PDMS/delta-lcp", &pdms_delta, &w, p, opts));
    }
    for r in &out {
        eprintln!(
            "ablation p={:<3} {:<16} modeled={:>9.2}ms bytes/str={:>8.1}",
            r.p,
            r.label,
            r.modeled().as_secs_f64() * 1e3,
            r.bytes_per_string()
        );
    }
    out
}

fn main() {
    let args = Args::parse();
    let pes = args.get_usize_list("pes", &[4, 8, 16]);
    let exp = args.get_str("exp", "all");
    assert!(
        matches!(
            exp.as_str(),
            "suffix" | "skewed" | "sampling" | "wiki" | "ablation" | "all"
        ),
        "--exp must be suffix, skewed, sampling, wiki, ablation or all, got '{exp}'"
    );
    let opts = MeasureOpts::from_args(&args);
    let out: PathBuf = PathBuf::from(args.get_str("out", "results/further.csv"));

    let mut results = Vec::new();
    if exp == "suffix" || exp == "all" {
        results.extend(exp_suffix(&pes, &opts));
    }
    if exp == "skewed" || exp == "all" {
        results.extend(exp_skewed(&pes, &opts));
    }
    if exp == "sampling" || exp == "all" {
        results.extend(exp_sampling(&pes, &opts));
    }
    if exp == "wiki" || exp == "all" {
        results.extend(exp_wiki(&pes, &opts));
    }
    if exp == "ablation" || exp == "all" {
        results.extend(exp_ablation(&pes, &opts));
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
