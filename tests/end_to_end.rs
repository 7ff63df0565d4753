//! End-to-end matrix: every algorithm × every workload family × several
//! PE counts, validated two ways — the communication-efficient
//! distributed checker *and* a central oracle (gather everything, compare
//! against a sequential sort; PDMS outputs are resolved through their
//! origin tags first).

use distributed_string_sorting::prelude::*;
use distributed_string_sorting::sort::output::origin_parts;

fn oracle_check(alg: Algorithm, workload: &Workload, p: usize, seed: u64) {
    // Expected: sequential sort of all shards.
    let mut expect: Vec<Vec<u8>> = (0..p)
        .flat_map(|r| workload.generate(r, p, seed).to_vecs())
        .collect();
    expect.sort();

    let result = run_spmd(p, RunConfig::default(), move |comm| {
        let shard = workload.generate(comm.rank(), comm.size(), seed);
        let input = shard.clone();
        let out = alg.instance().sort(comm, shard);
        check_distributed_sort(comm, &input, &out)
            .unwrap_or_else(|e| panic!("{} checker: {e}", alg.label()));
        (
            out.set.to_vecs(),
            out.origins,
            out.local_store.map(|s| s.to_vecs()),
        )
    });

    let got: Vec<Vec<u8>> = match result.values[0].1 {
        None => result
            .values
            .iter()
            .flat_map(|(s, _, _)| s.clone())
            .collect(),
        Some(_) => {
            // PDMS: map origins back to full strings.
            let stores: Vec<&Vec<Vec<u8>>> = result
                .values
                .iter()
                .map(|(_, _, st)| st.as_ref().expect("pdms keeps store"))
                .collect();
            result
                .values
                .iter()
                .flat_map(|(prefixes, origins, _)| {
                    let origins = origins.as_ref().expect("pdms origins");
                    prefixes.iter().zip(origins).map(|(pref, &tag)| {
                        let (pe, idx) = origin_parts(tag);
                        let full = stores[pe][idx].clone();
                        assert!(
                            full.starts_with(pref),
                            "{}: prefix/origin mismatch",
                            alg.label()
                        );
                        full
                    })
                })
                .collect()
        }
    };
    assert_eq!(
        got,
        expect,
        "{} on {} with p={p} does not sort",
        alg.label(),
        workload.label()
    );
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload::DnRatio {
            n_per_pe: 80,
            len: 60,
            r: 0.5,
            sigma: 8,
        },
        Workload::Web { n_per_pe: 70 },
        Workload::Dna { n_per_pe: 70 },
        Workload::Suffix {
            text_len: 240,
            cap: 60,
        },
    ]
}

#[test]
fn all_algorithms_sort_all_workloads_p4() {
    for alg in Algorithm::all_extended() {
        for w in workloads() {
            oracle_check(alg, &w, 4, 1);
        }
    }
}

#[test]
fn all_algorithms_sort_on_odd_pe_counts() {
    // 3 and 5 are prime: MS2L exercises its single-level fallback here.
    for alg in Algorithm::all_extended() {
        oracle_check(alg, &Workload::Web { n_per_pe: 50 }, 3, 2);
        oracle_check(
            alg,
            &Workload::DnRatio {
                n_per_pe: 40,
                len: 40,
                r: 0.25,
                sigma: 8,
            },
            5,
            3,
        );
    }
}

#[test]
fn all_algorithms_sort_on_single_pe() {
    for alg in Algorithm::all_extended() {
        oracle_check(alg, &Workload::Dna { n_per_pe: 60 }, 1, 4);
    }
}

#[test]
fn skewed_instances_sort() {
    let w = Workload::SkewedDnRatio {
        n_per_pe: 60,
        len: 80,
        r: 0.5,
        sigma: 8,
    };
    for alg in Algorithm::all_extended() {
        oracle_check(alg, &w, 4, 5);
    }
}

#[test]
fn ms2l_sorts_non_square_grids_on_every_workload() {
    // p = 6 → the 2×3 grid (non-square); all workload families.
    for w in workloads() {
        oracle_check(Algorithm::Ms2l, &w, 6, 6);
    }
}

/// Deterministic duplicate- and empty-laden shard builder for the MSML
/// acceptance matrix (xorshift, independent of the workload generators).
fn mixed_shards(p: usize, n_per_pe: usize, seed: u64) -> Vec<Vec<Vec<u8>>> {
    let mut state = seed | 1;
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
                    let kind = next() % 10;
                    if kind < 2 {
                        format!("dup{}", next() % 3).into_bytes()
                    } else if kind < 3 {
                        Vec::new()
                    } else {
                        let len = (next() % 12) as usize;
                        (0..len).map(|_| b'a' + (next() % 5) as u8).collect()
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs MSML and the MS oracle over identical shards and pins MSML's
/// output byte for byte: the globally sorted sequence must match MS
/// exactly, every PE's LCP array must be valid for its shard, and the
/// origin tags must agree (both sorters leave them absent).
fn msml_vs_ms_oracle(p: usize, shards: Vec<Vec<Vec<u8>>>) {
    use std::time::Duration;
    let cfg = RunConfig {
        recv_timeout: Duration::from_secs(120),
        ..RunConfig::default()
    };
    let run = |alg: Algorithm| {
        let shards = shards.clone();
        let cfg = cfg.clone();
        run_spmd(p, cfg, move |comm| {
            let set = StringSet::from_iter_bytes(shards[comm.rank()].iter().map(|s| s.as_slice()));
            let input = set.clone();
            let out = alg.instance().sort(comm, set);
            check_distributed_sort(comm, &input, &out)
                .unwrap_or_else(|e| panic!("{} checker: {e}", alg.label()));
            let lcps = out.lcps.as_ref().expect("LCP merge yields LCPs");
            distributed_string_sorting::strkit::lcp::verify_lcp_array(&out.set, lcps)
                .unwrap_or_else(|e| panic!("{} LCP array: {e}", alg.label()));
            (out.set.to_vecs(), out.origins)
        })
        .values
    };
    let oracle = run(Algorithm::Ms);
    let msml = run(Algorithm::Msml);
    type PeOut = (Vec<Vec<u8>>, Option<Vec<u64>>);
    let cat = |v: &[PeOut]| -> Vec<Vec<u8>> { v.iter().flat_map(|(s, _)| s.clone()).collect() };
    assert_eq!(
        cat(&msml),
        cat(&oracle),
        "p={p}: MSML's global order deviates from the MS oracle"
    );
    for (pe, (m, o)) in msml.iter().zip(&oracle).enumerate() {
        assert_eq!(m.1, o.1, "p={p} PE {pe}: origin tags differ from MS");
    }
}

#[test]
fn msml_matches_ms_oracle_across_grid_depths() {
    // The acceptance matrix: 4 = 2·2, 6 = 3·2, 8 = 2·2·2, 12 = 3·2·2,
    // 16 = 2·2·2·2, 27 = 3·3·3 — two-, three- and four-level grids.
    for &p in &[4usize, 6, 8, 12, 16, 27] {
        let n = (360 / p).max(10);
        msml_vs_ms_oracle(p, mixed_shards(p, n, p as u64));
    }
}

#[test]
fn msml_matches_ms_oracle_on_prime_fallback_and_degenerate_inputs() {
    // p = 7 is prime: MSML falls back to single-level MS, so the oracle
    // match is trivially exact — the pin guards the fallback wiring.
    msml_vs_ms_oracle(7, mixed_shards(7, 30, 7));
    // Duplicate-only shards at three-level depth (tie-break through
    // every level) and all-empty shards (splitter padding per group).
    msml_vs_ms_oracle(8, (0..8).map(|_| vec![b"dup".to_vec(); 40]).collect());
    msml_vs_ms_oracle(12, (0..12).map(|_| Vec::new()).collect());
}

/// Runs flat PDMS and a PD grid variant over identical shards and pins
/// the permutation contract byte for byte:
///
/// * the world-rank-ordered concatenation of output *prefixes* is
///   identical — both sorters truncate with the same (collectively
///   computed) Step-1+ε lengths, and the sorted sequence of a fixed
///   multiset is unique;
/// * the origin tags across all PEs form a permutation of every
///   `(pe, idx)` pair, and resolving them through the local stores
///   reconstructs the sorted global input exactly (equal truncated
///   prefixes imply equal full strings, so tie order cannot leak);
/// * every PE's local store is its own shard, locally sorted.
fn pd_grid_vs_pdms_oracle(p: usize, shards: Vec<Vec<Vec<u8>>>) {
    use std::time::Duration;
    let cfg = RunConfig {
        recv_timeout: Duration::from_secs(120),
        ..RunConfig::default()
    };
    let run = |alg: Algorithm| {
        let shards = shards.clone();
        let cfg = cfg.clone();
        run_spmd(p, cfg, move |comm| {
            let set = StringSet::from_iter_bytes(shards[comm.rank()].iter().map(|s| s.as_slice()));
            let input = set.clone();
            let out = alg.instance().sort(comm, set);
            check_distributed_sort(comm, &input, &out)
                .unwrap_or_else(|e| panic!("{} checker: {e}", alg.label()));
            (
                out.set.to_vecs(),
                out.origins.expect("permutation output carries origins"),
                out.local_store.expect("full strings stay home").to_vecs(),
            )
        })
        .values
    };
    let mut expect: Vec<Vec<u8>> = shards.iter().flatten().cloned().collect();
    expect.sort();
    type PeOut = (Vec<Vec<u8>>, Vec<u64>, Vec<Vec<u8>>);
    let flat = run(Algorithm::Pdms);
    let cat = |v: &[PeOut]| -> Vec<Vec<u8>> { v.iter().flat_map(|(s, _, _)| s.clone()).collect() };
    for alg in [Algorithm::PdMs2l, Algorithm::PdMsml] {
        let grid = run(alg);
        assert_eq!(
            cat(&grid),
            cat(&flat),
            "p={p}: {} prefix stream deviates from flat PDMS",
            alg.label()
        );
        // Origins form a permutation and resolve to the sorted input.
        let stores: Vec<&Vec<Vec<u8>>> = grid.iter().map(|(_, _, st)| st).collect();
        for (pe, (_, _, store)) in grid.iter().enumerate() {
            let mut local = shards[pe].clone();
            local.sort();
            assert_eq!(
                store, &local,
                "p={p} PE {pe}: local store not the sorted shard"
            );
        }
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut reconstructed: Vec<Vec<u8>> = Vec::new();
        for (prefixes, origins, _) in &grid {
            assert_eq!(prefixes.len(), origins.len());
            for (pref, &tag) in prefixes.iter().zip(origins) {
                let (pe, idx) = origin_parts(tag);
                seen.push((pe, idx));
                let full = &stores[pe][idx];
                assert!(
                    full.starts_with(pref),
                    "{}: prefix/origin mismatch",
                    alg.label()
                );
                reconstructed.push(full.clone());
            }
        }
        seen.sort_unstable();
        let all_slots: Vec<(usize, usize)> = (0..p)
            .flat_map(|pe| (0..shards[pe].len()).map(move |i| (pe, i)))
            .collect();
        assert_eq!(
            seen,
            all_slots,
            "{}: origins are not a permutation",
            alg.label()
        );
        assert_eq!(
            reconstructed,
            expect,
            "p={p}: {} origin permutation does not sort the input",
            alg.label()
        );
    }
}

#[test]
fn pd_grid_variants_match_pdms_oracle_across_grid_depths() {
    // Same acceptance matrix as MSML-vs-MS: 4 = 2·2, 6 = 3·2, 8 = 2·2·2,
    // 12 = 3·2·2, 16 = 2·2·2·2, 27 = 3·3·3.
    for &p in &[4usize, 6, 8, 12, 16, 27] {
        let n = (360 / p).max(10);
        pd_grid_vs_pdms_oracle(p, mixed_shards(p, n, 100 + p as u64));
    }
}

#[test]
fn pd_grid_variants_match_pdms_on_prime_fallback_and_degenerate_inputs() {
    // p = 7 is prime: both grid variants fall back to flat PDMS, so the
    // pin guards the fallback wiring (including origins + local store).
    pd_grid_vs_pdms_oracle(7, mixed_shards(7, 30, 107));
    // Duplicate-only shards (every prefix ships whole, tie-break through
    // every level) and all-empty shards (splitter padding per group).
    pd_grid_vs_pdms_oracle(8, (0..8).map(|_| vec![b"dup".to_vec(); 40]).collect());
    pd_grid_vs_pdms_oracle(12, (0..12).map(|_| Vec::new()).collect());
}

#[test]
fn degenerate_duplicate_only_input() {
    // Every string identical across all PEs — the FKmerge-crash trigger.
    #[derive(Clone)]
    struct AllDup;
    let result = run_spmd(4, RunConfig::default(), |comm| {
        let _ = AllDup;
        let shard = StringSet::from_strs(&["boiler"; 100]);
        let input = shard.clone();
        for alg in Algorithm::all_extended() {
            let out = alg.instance().sort(comm, shard.clone());
            check_distributed_sort(comm, &input, &out)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.label()));
        }
    });
    assert_eq!(result.values.len(), 4);
}

#[test]
fn empty_and_near_empty_inputs() {
    for alg in Algorithm::all_extended() {
        let result = run_spmd(3, RunConfig::default(), move |comm| {
            // PE1 holds everything; others are empty.
            let shard = if comm.rank() == 1 {
                StringSet::from_strs(&["x", "a", "m", "q", "b"])
            } else {
                StringSet::new()
            };
            let input = shard.clone();
            let out = alg.instance().sort(comm, shard);
            check_distributed_sort(comm, &input, &out)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.label()));
            out.set.len()
        });
        assert_eq!(result.values.iter().sum::<usize>(), 5, "{}", alg.label());
    }
}

#[test]
fn fully_empty_inputs_survive_splitter_padding() {
    // Every PE empty: the global sample is empty, so splitter selection
    // pads to full width and the exchange still sees well-shaped buckets.
    for alg in Algorithm::all_extended() {
        let result = run_spmd(4, RunConfig::default(), move |comm| {
            let out = alg.instance().sort(comm, StringSet::new());
            check_distributed_sort(comm, &StringSet::new(), &out)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.label()));
            out.set.len()
        });
        assert_eq!(result.values.iter().sum::<usize>(), 0, "{}", alg.label());
    }
}

/// Byte 0 is the strings' end-of-string sentinel, so every sorter rejects
/// it at ingestion instead of returning mis-sorted output: the PE holding
/// it panics naming itself and the string's local index, and the
/// runtime's poison pill ends every other PE's run (no hang until the
/// receive timeout).
#[test]
fn byte_zero_input_fails_loudly_on_every_algorithm() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let p = 4;
    // Strings over {1, 2}; PE r's string 3 gets a 0 byte when `zero(r)`.
    let shard = |rank: usize, zero: bool| -> StringSet {
        let mut set = StringSet::new();
        for i in 0..200usize {
            let mut s: Vec<u8> = (0..1 + (i * 7 + rank) % 9)
                .map(|j| 1 + ((i + j * 3 + rank) % 2) as u8)
                .collect();
            if zero && i == 3 {
                s[0] = 0;
            }
            set.push(&s);
        }
        set
    };
    let cfg = RunConfig {
        recv_timeout: std::time::Duration::from_secs(60),
        ..RunConfig::default()
    };
    for alg in Algorithm::all_extended() {
        // (the PE holding a 0, or every PE for `None`; the PEs whose
        // message the caller may see): with the 0 on PE 2 only, the other
        // PEs abort on the poison pill, and the runner re-raises PE 2's
        // own panic. With a 0 on every PE, whichever PE fails first is
        // re-raised.
        let cases = [(None, 0..p), (Some(2), 2..3)];
        for (zero_on, culprits) in cases {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_spmd(p, cfg.clone(), |comm| {
                    let zero = zero_on.is_none_or(|z| z == comm.rank());
                    let set = shard(comm.rank(), zero);
                    let out = alg.instance_with(ExchangeMode::Blocking, 1).sort(comm, set);
                    out.set.len()
                })
            }));
            let payload = match outcome {
                Ok(res) => panic!("{}: byte 0 returned output {:?}", alg.label(), res.values),
                Err(e) => e,
            };
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            let expect: Vec<String> = culprits
                .map(|r| format!("PE {r}: input string 3 contains byte 0"))
                .collect();
            assert!(
                expect.iter().any(|e| msg.contains(e.as_str())),
                "{}: expected a panic containing one of {expect:?}, got '{msg}'",
                alg.label()
            );
        }
    }
}
