//! Suffix sorting via distributed string sorting — the paper's §VII-E
//! experiment and its original motivation (string sorting as the workhorse
//! inside suffix array construction, e.g. the difference-cover algorithm).
//!
//! All suffixes of one generated text are sorted as strings. The instance
//! has D ≪ N (the text's repeats are much shorter than the suffixes), so
//! PDMS transmits a tiny fraction of the characters; the other algorithms
//! pay for the full suffix lengths. The example builds the suffix array,
//! verifies it against a direct sequential construction, and prints the
//! communication-volume contrast.
//!
//! Run with: `cargo run --release --example suffix_sorting`

use distributed_string_sorting::gen::text::generate_text;
use distributed_string_sorting::prelude::*;
use distributed_string_sorting::sort::output::origin_parts;

const TEXT_LEN: usize = 4000;
const CAP: usize = 400;

fn main() {
    let p = 8;
    println!("suffix-sorting a {TEXT_LEN}-char text on {p} simulated PEs\n");

    // Distributed: suffixes round-robin over PEs, sorted with PDMS.
    // PDMS's (prefix, origin) output *is* the suffix array: origin tags
    // identify (PE, local index) → suffix start position.
    let result = run_spmd(p, RunConfig::default(), |comm| {
        let shard = Workload::Suffix {
            text_len: TEXT_LEN,
            cap: CAP,
        }
        .generate(comm.rank(), comm.size(), 5);
        // Remember each local suffix's start position, in the local
        // *sorted* order PDMS indexes into. Local sort is deterministic,
        // so recompute it the same way the algorithm does.
        let mut sorted_local = shard.clone();
        let (_, _) = sort_with_lcp(&mut sorted_local);
        let out = Algorithm::Pdms.instance().sort(comm, shard);
        let origins = out.origins.clone().expect("PDMS reports origins");
        (sorted_local.to_vecs(), origins)
    });
    let pdms_bytes = result.stats.total_bytes_sent();

    // Reconstruct the global suffix array from the origin tags.
    let text = generate_text(TEXT_LEN, 5);
    let locals: Vec<&Vec<Vec<u8>>> = result.values.iter().map(|(l, _)| l).collect();
    // Map (pe, local sorted index) → suffix start position: capped
    // suffixes are pairwise distinct (the generator salts the text), so
    // content identifies the position.
    let mut pos_of_content: std::collections::HashMap<&[u8], usize> =
        std::collections::HashMap::with_capacity(TEXT_LEN);
    for pos in 0..TEXT_LEN {
        let end = (pos + CAP).min(TEXT_LEN);
        pos_of_content.insert(&text[pos..end], pos);
    }
    let mut start_of: Vec<Vec<usize>> = Vec::with_capacity(p);
    for local in &locals {
        start_of.push(
            local
                .iter()
                .map(|suffix| pos_of_content[suffix.as_slice()])
                .collect(),
        );
    }
    let mut suffix_array: Vec<usize> = Vec::with_capacity(TEXT_LEN);
    for (_, origins) in &result.values {
        for &tag in origins {
            let (pe, idx) = origin_parts(tag);
            suffix_array.push(start_of[pe][idx]);
        }
    }
    assert_eq!(suffix_array.len(), TEXT_LEN);

    // Sequential oracle.
    let mut expect: Vec<usize> = (0..TEXT_LEN).collect();
    expect.sort_by(|&a, &b| text[a..].cmp(&text[b..]));
    assert_eq!(suffix_array, expect, "distributed SA equals sequential SA");
    println!("suffix array of length {TEXT_LEN} verified against sequential construction ✓");

    // Contrast with MS (which must ship whole suffixes).
    let ms = run_spmd(p, RunConfig::default(), |comm| {
        let shard = Workload::Suffix {
            text_len: TEXT_LEN,
            cap: CAP,
        }
        .generate(comm.rank(), comm.size(), 5);
        let out = MergeSort::default().sort(comm, shard);
        out.set.len()
    });
    let ms_bytes = ms.stats.total_bytes_sent();
    println!("\ncommunication volume:");
    println!("  PDMS (dist prefixes only): {:>12} bytes", pdms_bytes);
    println!("  MS   (full suffixes):      {:>12} bytes", ms_bytes);
    println!(
        "  → prefix doubling saved {:.0}x (paper: ~30x runtime gap on its suffix instance)",
        ms_bytes as f64 / pdms_bytes as f64
    );
}
