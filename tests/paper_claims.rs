//! Qualitative claims of the paper's analysis and evaluation, asserted on
//! the simulator's exact communication accounting. These are the
//! invariants behind the *shape* of Figures 4 and 5.

use distributed_string_sorting::prelude::*;

fn total_bytes(alg: Algorithm, w: &Workload, p: usize) -> u64 {
    let result = run_spmd(p, RunConfig::default(), move |comm| {
        let shard = w.generate(comm.rank(), comm.size(), 9);
        let _ = alg.instance().sort(comm, shard);
    });
    result.stats.total_bytes_sent()
}

fn phase_bytes(alg: Algorithm, w: &Workload, p: usize, phase: &str) -> u64 {
    let result = run_spmd(p, RunConfig::default(), move |comm| {
        let shard = w.generate(comm.rank(), comm.size(), 9);
        let _ = alg.instance().sort(comm, shard);
    });
    result
        .stats
        .phases
        .iter()
        .filter(|ph| ph.name == phase)
        .map(|ph| ph.total.bytes_sent)
        .sum()
}

/// Bottleneck (max per-PE) received bytes of one phase — the `h` of the
/// paper's cost model.
fn phase_bottleneck_recv(alg: Algorithm, w: &Workload, p: usize, phase: &str) -> u64 {
    let result = run_spmd(p, RunConfig::default(), move |comm| {
        let shard = w.generate(comm.rank(), comm.size(), 9);
        let _ = alg.instance().sort(comm, shard);
    });
    result
        .stats
        .phases
        .iter()
        .filter(|ph| ph.name == phase)
        .map(|ph| ph.max.bytes_recv)
        .sum()
}

/// Long strings, tiny distinguishing prefixes (the D ≪ N regime, §VI):
/// PDMS must transmit a small fraction of MS's volume.
#[test]
fn pdms_wins_big_when_d_much_smaller_than_n() {
    let w = Workload::DnRatio {
        n_per_pe: 300,
        len: 300,
        r: 0.05,
        sigma: 16,
    };
    let pdms = total_bytes(Algorithm::Pdms, &w, 4);
    let ms = total_bytes(Algorithm::Ms, &w, 4);
    let simple = total_bytes(Algorithm::MsSimple, &w, 4);
    assert!(pdms * 4 < ms, "PDMS {pdms} vs MS {ms}");
    assert!(pdms * 4 < simple, "PDMS {pdms} vs MS-simple {simple}");
}

/// High D/N: prefix doubling cannot help; its overhead must stay moderate
/// (the paper: "slightly slower than MS", not catastrophically). String
/// length matches the paper's 500 so the per-string fingerprint overhead
/// amortizes as it does there.
#[test]
fn pdms_overhead_stays_moderate_at_high_dn() {
    let w = Workload::DnRatio {
        n_per_pe: 200,
        len: 500,
        r: 1.0,
        sigma: 16,
    };
    let pdms = total_bytes(Algorithm::Pdms, &w, 4);
    let ms = total_bytes(Algorithm::Ms, &w, 4);
    assert!(
        pdms < ms * 2,
        "PDMS {pdms} should be within 2x of MS {ms} even at D/N=1"
    );
}

/// LCP compression: MS sends less than MS-simple whenever LCPs are long,
/// and the gap grows with D/N (Fig. 4's bottom panels).
#[test]
fn lcp_compression_gap_grows_with_dn_ratio() {
    let gap = |r: f64| -> f64 {
        let w = Workload::DnRatio {
            n_per_pe: 300,
            len: 100,
            r,
            sigma: 16,
        };
        let ms = total_bytes(Algorithm::Ms, &w, 4) as f64;
        let simple = total_bytes(Algorithm::MsSimple, &w, 4) as f64;
        simple / ms
    };
    let low = gap(0.1);
    let high = gap(0.9);
    assert!(
        high > low,
        "gap at r=0.9 ({high:.2}) must exceed r=0.1 ({low:.2})"
    );
    assert!(high > 1.5, "high-LCP input must compress well ({high:.2})");
}

/// hQuick moves all data a logarithmic number of times: its volume is the
/// largest of all algorithms and grows with log p (Theorem 1).
#[test]
fn hquick_volume_largest_and_grows_with_log_p() {
    let w = Workload::Web { n_per_pe: 200 };
    let hq4 = total_bytes(Algorithm::HQuick, &w, 4);
    let strong_w8 = Workload::Web { n_per_pe: 100 }; // same total at p=8
    let hq8 = total_bytes(Algorithm::HQuick, &strong_w8, 8);
    assert!(hq8 > hq4, "volume grows with p: {hq4} -> {hq8}");
    for alg in [Algorithm::Ms, Algorithm::MsSimple, Algorithm::Pdms] {
        let other = total_bytes(alg, &w, 4);
        assert!(
            hq4 > other,
            "hQuick {hq4} must exceed {} {other}",
            alg.label()
        );
    }
}

/// FKmerge's quadratic sample is sorted *centrally*: the bottleneck PE
/// receives Θ(p²·ℓ̂) sample characters, while MS's distributed hQuick
/// sample sort spreads the same sample across all PEs. The bottleneck
/// received volume of the partition phase must therefore blow up with p
/// much faster for FKmerge (the paper's explanation of Fig. 4's FKmerge
/// collapse: "a bottleneck due to centralized sorting of samples").
#[test]
fn fkmerge_partition_bottleneck_explodes_with_p() {
    let w = Workload::DnRatio {
        n_per_pe: 64,
        len: 100,
        r: 0.5,
        sigma: 16,
    };
    let fk = |p: usize| phase_bottleneck_recv(Algorithm::FkMerge, &w, p, "partition") as f64;
    let ms = |p: usize| phase_bottleneck_recv(Algorithm::Ms, &w, p, "partition") as f64;
    let fk_growth = fk(8) / fk(2);
    let ms_growth = ms(8) / ms(2);
    assert!(
        fk_growth > 1.5 * ms_growth,
        "FKmerge bottleneck growth {fk_growth:.1} should dwarf MS's {ms_growth:.1}"
    );
    // In absolute terms the Θ(p²·ℓ̂) root load overtakes MS's distributed
    // sample sort once p is large enough (p = 16 suffices here; the paper
    // sees the collapse beyond 320 cores).
    assert!(
        fk(16) > ms(16),
        "FKmerge bottleneck {} vs MS {} at p=16",
        fk(16),
        ms(16)
    );
}

/// Golomb coding shrinks the duplicate-detection traffic (PDMS-Golomb vs
/// PDMS in the prefix_doubling phase).
#[test]
fn golomb_shrinks_dedup_traffic() {
    let w = Workload::Dna { n_per_pe: 400 };
    let raw = phase_bytes(Algorithm::Pdms, &w, 4, "prefix_doubling");
    let gol = phase_bytes(Algorithm::PdmsGolomb, &w, 4, "prefix_doubling");
    assert!(gol < raw, "golomb {gol} must be below raw {raw}");
}

/// The distinguishing-prefix cap: on data where every string is a
/// duplicate, PDMS degenerates gracefully to full strings.
#[test]
fn pdms_on_pure_duplicates_ships_full_strings_once_each_pe() {
    let result = run_spmd(2, RunConfig::default(), |comm| {
        let shard = StringSet::from_strs(&["copy"; 50]);
        let out = Algorithm::Pdms.instance().sort(comm, shard);
        out.set.iter().map(|s| s.len()).sum::<usize>()
    });
    // Every output prefix is the full 4-char string.
    let total: usize = result.values.iter().sum();
    assert_eq!(total, 100 * 4);
}

/// Weak scaling shape: in Fig. 4's volume panels all curves rise with p,
/// but hQuick's rises fastest (every string moves log p times) while the
/// merge-based algorithms' per-string volume grows only through the
/// splitter machinery. Assert the *relative* growth ordering.
#[test]
fn ms_volume_grows_slower_than_hquick_in_weak_scaling() {
    let per_string = |alg: Algorithm, p: usize| -> f64 {
        let w = Workload::DnRatio {
            n_per_pe: 600,
            len: 100,
            r: 0.5,
            sigma: 16,
        };
        total_bytes(alg, &w, p) as f64 / (600.0 * p as f64)
    };
    let ms_growth = per_string(Algorithm::Ms, 8) / per_string(Algorithm::Ms, 2);
    let hq_growth = per_string(Algorithm::HQuick, 8) / per_string(Algorithm::HQuick, 2);
    assert!(
        ms_growth < hq_growth,
        "MS growth {ms_growth:.2} must stay below hQuick's {hq_growth:.2}"
    );
    assert!(
        ms_growth < 3.0,
        "MS per-string volume growth {ms_growth:.2} should stay mild at this scale"
    );
}
