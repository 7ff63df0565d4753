//! Smoke tests for the public entry points a new user hits first: the
//! `src/lib.rs` quick start (4-PE PDMS; also exercised as a doc-test by
//! `cargo test`) and the `examples/suffix_sorting.rs` pipeline, scaled
//! down but structurally identical — suffix shards round-robin over PEs,
//! PDMS's (prefix, origin) output reassembled into a suffix array and
//! verified against a direct sequential construction.

use distributed_string_sorting::gen::text::generate_text;
use distributed_string_sorting::prelude::*;
use distributed_string_sorting::sort::output::origin_parts;
use std::collections::HashMap;
use std::time::Duration;

fn cfg_run() -> RunConfig {
    RunConfig {
        recv_timeout: Duration::from_secs(60),
        ..RunConfig::default()
    }
}

#[test]
fn quickstart_4pe_pdms_produces_sorted_output() {
    // The same program as the src/lib.rs doc-test.
    let result = run_spmd(4, cfg_run(), |comm| {
        let shard = StringSet::from_strs(match comm.rank() {
            0 => &["tokyo", "lima", "cairo"],
            1 => &["paris", "accra", "quito"],
            2 => &["delhi", "seoul", "hanoi"],
            _ => &["oslo", "berlin", "dakar"],
        });
        let input = shard.clone();
        let out = Algorithm::Pdms.instance().sort(comm, shard);
        check_distributed_sort(comm, &input, &out).expect("distributed check passes");
        out.set.to_vecs()
    });

    // Concatenated per-PE outputs are globally sorted and complete: PDMS
    // emits distinguishing *prefixes*, so each output entry must prefix
    // the corresponding input string and the prefix sequence must be
    // globally ordered.
    let all: Vec<Vec<u8>> = result.values.into_iter().flatten().collect();
    assert_eq!(all.len(), 12, "one output per input string");
    assert!(all.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
    let mut inputs: Vec<&str> = vec![
        "tokyo", "lima", "cairo", "paris", "accra", "quito", "delhi", "seoul", "hanoi", "oslo",
        "berlin", "dakar",
    ];
    inputs.sort_unstable();
    for (prefix, full) in all.iter().zip(&inputs) {
        assert!(
            full.as_bytes().starts_with(prefix),
            "{:?} prefixes {full}",
            String::from_utf8_lossy(prefix)
        );
    }
}

#[test]
fn suffix_sorting_example_pipeline_matches_sequential_oracle() {
    // examples/suffix_sorting.rs at reduced scale (the example itself
    // runs 4000 chars on 8 PEs; the structure below is identical).
    // CAP exceeds the generator's salt spacing (~85 chars), so every
    // capped window contains a position-dependent salt and the capped
    // suffixes are pairwise distinct (asserted below).
    const TEXT_LEN: usize = 600;
    const CAP: usize = 120;
    let p = 4;

    let result = run_spmd(p, cfg_run(), |comm| {
        let shard = Workload::Suffix {
            text_len: TEXT_LEN,
            cap: CAP,
        }
        .generate(comm.rank(), comm.size(), 5);
        let mut sorted_local = shard.clone();
        let (_, _) = sort_with_lcp(&mut sorted_local);
        let out = Algorithm::Pdms.instance().sort(comm, shard);
        let origins = out.origins.clone().expect("PDMS reports origins");
        (sorted_local.to_vecs(), origins)
    });
    assert!(
        result.stats.total_bytes_sent() > 0,
        "distributed run communicated"
    );

    // Reconstruct the suffix array from the origin tags.
    let text = generate_text(TEXT_LEN, 5);
    let mut pos_of_content: HashMap<&[u8], usize> = HashMap::with_capacity(TEXT_LEN);
    for pos in 0..TEXT_LEN {
        let end = (pos + CAP).min(TEXT_LEN);
        pos_of_content.insert(&text[pos..end], pos);
    }
    assert_eq!(
        pos_of_content.len(),
        TEXT_LEN,
        "capped suffixes are pairwise distinct"
    );
    let start_of: Vec<Vec<usize>> = result
        .values
        .iter()
        .map(|(local, _)| {
            local
                .iter()
                .map(|suffix| pos_of_content[suffix.as_slice()])
                .collect()
        })
        .collect();
    let mut suffix_array: Vec<usize> = Vec::with_capacity(TEXT_LEN);
    for (_, origins) in &result.values {
        for &tag in origins {
            let (pe, idx) = origin_parts(tag);
            suffix_array.push(start_of[pe][idx]);
        }
    }
    assert_eq!(suffix_array.len(), TEXT_LEN);

    // Sequential oracle: sorted output means sorted capped suffixes.
    let mut expect: Vec<usize> = (0..TEXT_LEN).collect();
    expect.sort_by(|&a, &b| {
        let ea = (a + CAP).min(TEXT_LEN);
        let eb = (b + CAP).min(TEXT_LEN);
        text[a..ea].cmp(&text[b..eb])
    });
    assert_eq!(suffix_array, expect, "distributed SA equals sequential SA");
}
