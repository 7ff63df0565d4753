//! Isolated calls into each layer's public entry point, on the
//! workload's own shards. Each call is wrapped in a span of category
//! [`BENCH_CAT`] named after its metric, recorded when tracing is on.

use crate::alloc::alloc_calls;
use crate::drivers::run_config;
use crate::spec::WorkloadSpec;
use dss_codec::wire::{decode_lcp_into, encode_lcp, encoded_len_lcp, DecodedRun};
use dss_dedup::prefix_doubling::{approx_dist_prefixes, PrefixDoublingConfig};
use dss_net::cputime::thread_cpu_ns;
use dss_net::runner::run_spmd;
use dss_net::topology::{multi_grid_dims, multi_grid_view};
use dss_net::trace;
use dss_sort::checker::check_distributed_sort;
use dss_sort::exchange::{ExchangeCodec, ExchangePayload, StringAllToAll};
use dss_sort::partition::{bucket_bounds, determine_splitters, PartitionConfig};
use dss_sort::ExchangeMode;
use dss_strkit::copyvol::bytes_copied;
use dss_strkit::losertree::{parallel_lcp_merge_into, MergeRun};
use dss_strkit::sort::sort_with_lcp;
use dss_strkit::StringSet;
use std::hint::black_box;

/// Span category of the benchmark's own layer-call spans.
pub const BENCH_CAT: &str = "bench";

/// The shards of one workload and seed, raw and locally sorted.
pub struct Shards {
    pub raw: Vec<StringSet>,
    pub sorted: Vec<StringSet>,
    pub lcps: Vec<Vec<u32>>,
    pub strings: usize,
    pub chars: usize,
}

impl Shards {
    pub fn generate(w: &WorkloadSpec, seed: u64) -> Self {
        let raw: Vec<StringSet> = (0..w.p)
            .map(|rank| w.workload.generate(rank, w.p, seed))
            .collect();
        let mut sorted = raw.clone();
        let lcps = sorted.iter_mut().map(|s| sort_with_lcp(s).0).collect();
        Self {
            strings: raw.iter().map(StringSet::len).sum(),
            chars: raw.iter().map(StringSet::num_chars).sum(),
            raw,
            sorted,
            lcps,
        }
    }

    fn p(&self) -> usize {
        self.raw.len()
    }
}

/// Values of one round of isolated calls, plus any output that failed
/// its check.
#[derive(Default)]
pub struct Round {
    pub values: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
}

impl Round {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures.push(format!("isolated {what}: wrong output"));
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs every isolated layer call once.
pub fn round(sh: &Shards, seed: u64) -> Round {
    let mut r = Round::default();
    strkit(sh, &mut r);
    codec(sh, &mut r);
    distributed(sh, seed, &mut r);
    r
}

fn strkit(sh: &Shards, r: &mut Round) {
    let mut global = StringSet::with_capacity(sh.strings, sh.chars);
    for s in &sh.raw {
        global.extend_from(s);
    }
    let (c0, t0) = (bytes_copied(), thread_cpu_ns());
    let (lcps, stats) = {
        let _s = trace::span(BENCH_CAT, "strkit.sort_ms");
        sort_with_lcp(black_box(&mut global))
    };
    let sort_ns = thread_cpu_ns() - t0;
    r.put("strkit.sort_ms", ms(sort_ns));
    r.put("strkit.sort_bytes_copied", (bytes_copied() - c0) as f64);
    r.put(
        "strkit.chars_inspected_share",
        stats.chars_accessed as f64 / sh.chars as f64,
    );
    r.check(
        dss_strkit::lcp::verify_lcp_array(&global, &lcps).is_ok()
            && dss_strkit::checker::is_sorted(&global),
        "strkit sort",
    );

    let runs: Vec<MergeRun<'_>> = sh
        .sorted
        .iter()
        .zip(&sh.lcps)
        .map(|(s, l)| MergeRun {
            arena: s.arena(),
            refs: s.refs(),
            lcps: l,
        })
        .collect();
    for threads in [1, 2] {
        let mut out = StringSet::new();
        let (c0, t0) = (bytes_copied(), thread_cpu_ns());
        {
            let _s = trace::span(
                BENCH_CAT,
                if threads == 1 {
                    "strkit.merge_ms"
                } else {
                    "strkit.par_merge_bytes_copied"
                },
            );
            parallel_lcp_merge_into(black_box(&runs), &mut out, threads);
        }
        let ns = thread_cpu_ns() - t0;
        let copied = (bytes_copied() - c0) as f64;
        if threads == 1 {
            r.put("strkit.merge_ms", ms(ns));
            r.put("strkit.merge_bytes_copied", copied);
        } else {
            r.put("strkit.par_merge_bytes_copied", copied);
        }
        r.check(out.iter().eq(global.iter()), "strkit merge");
    }
}

fn codec(sh: &Shards, r: &mut Round) {
    let lens: Vec<usize> = sh
        .sorted
        .iter()
        .zip(&sh.lcps)
        .map(|(s, l)| encoded_len_lcp(s.iter(), l, None, false))
        .collect();
    let mut bufs: Vec<Vec<u8>> = lens.iter().map(|&n| Vec::with_capacity(n)).collect();
    let t0 = thread_cpu_ns();
    {
        let _s = trace::span(BENCH_CAT, "codec.encode_ns_per_string");
        for ((s, l), buf) in sh.sorted.iter().zip(&sh.lcps).zip(&mut bufs) {
            encode_lcp(s.iter(), l, None, false, black_box(buf));
        }
    }
    let encode_ns = thread_cpu_ns() - t0;
    let mut run = DecodedRun::default();
    let mut decoded_ok = true;
    let mut decode_ns = 0;
    {
        let _s = trace::span(BENCH_CAT, "codec.decode_ns_per_string");
        for (s, buf) in sh.sorted.iter().zip(&bufs) {
            let mut pos = 0;
            let t0 = thread_cpu_ns();
            let ok = decode_lcp_into(black_box(buf), &mut pos, &mut run).is_some();
            decode_ns += thread_cpu_ns() - t0;
            decoded_ok &= ok && pos == buf.len() && run.iter().eq(s.iter());
        }
    }
    let n = sh.strings as f64;
    r.put("codec.encode_ns_per_string", encode_ns as f64 / n);
    r.put("codec.decode_ns_per_string", decode_ns as f64 / n);
    r.put(
        "codec.lcp_bytes_per_string",
        lens.iter().sum::<usize>() as f64 / n,
    );
    r.check(
        decoded_ok && bufs.iter().zip(&lens).all(|(b, &n)| b.len() == n),
        "codec round trip",
    );
}

/// Largest value over PEs.
fn max_of(values: impl Iterator<Item = u64>) -> u64 {
    values.max().unwrap_or(0)
}

fn blocking_partition() -> PartitionConfig {
    PartitionConfig {
        mode: ExchangeMode::Blocking,
        threads: 1,
        ..PartitionConfig::default()
    }
}

fn distributed(sh: &Shards, seed: u64, r: &mut Round) {
    let p = sh.p();

    // dedup: Step 1+ε on the sorted shards.
    let res = run_spmd(p, run_config(seed), |comm| {
        let (set, lcps) = (&sh.sorted[comm.rank()], &sh.lcps[comm.rank()]);
        comm.barrier();
        let t0 = thread_cpu_ns();
        let (approx, _) = {
            let _s = trace::span(BENCH_CAT, "dedup.prefix_doubling_ms");
            approx_dist_prefixes(comm, set, lcps, &PrefixDoublingConfig::default())
        };
        let ns = thread_cpu_ns() - t0;
        let ok = approx.len() == set.len()
            && approx
                .iter()
                .zip(set.iter())
                .all(|(&a, s)| a >= 1 && a as usize <= s.len() + 1);
        let shipped: usize = approx
            .iter()
            .zip(set.iter())
            .map(|(&a, s)| (a as usize).min(s.len()))
            .sum();
        (ns, shipped, ok)
    });
    r.put(
        "dedup.prefix_doubling_ms",
        ms(max_of(res.values.iter().map(|v| v.0))),
    );
    r.put(
        "dedup.dist_prefix_share",
        res.values.iter().map(|v| v.1).sum::<usize>() as f64 / sh.chars as f64,
    );
    r.check(res.values.iter().all(|v| v.2), "prefix doubling");

    // partition: splitters and bucket classification.
    let res = run_spmd(p, run_config(seed), |comm| {
        let set = &sh.sorted[comm.rank()];
        comm.barrier();
        let t0 = thread_cpu_ns();
        let bounds = {
            let _s = trace::span(BENCH_CAT, "partition.splitters_ms");
            let splitters = determine_splitters(comm, set, &blocking_partition(), None, None);
            bucket_bounds(set, &splitters)
        };
        let ns = thread_cpu_ns() - t0;
        let sizes: Vec<usize> = bounds.windows(2).map(|b| b[1] - b[0]).collect();
        (ns, sizes)
    });
    let mut buckets = vec![0usize; p];
    for (_, sizes) in &res.values {
        for (b, n) in buckets.iter_mut().zip(sizes) {
            *b += n;
        }
    }
    r.put(
        "partition.splitters_ms",
        ms(max_of(res.values.iter().map(|v| v.0))),
    );
    r.put(
        "partition.bucket_imbalance",
        *buckets.iter().max().unwrap_or(&0) as f64 / (sh.strings as f64 / p as f64),
    );
    r.check(
        buckets.iter().sum::<usize>() == sh.strings && res.values.iter().all(|v| v.1.len() == p),
        "partition",
    );

    // exchange: a warm engine, measured between fences.
    let res = run_spmd(p, run_config(seed), |comm| {
        let (set, lcps) = (&sh.sorted[comm.rank()], &sh.lcps[comm.rank()]);
        let splitters = determine_splitters(comm, set, &blocking_partition(), None, None);
        let payload = ExchangePayload {
            set,
            lcps,
            origins: None,
            truncate: None,
        };
        let mut engine =
            StringAllToAll::with_mode(ExchangeCodec::LcpCompressed, ExchangeMode::Blocking)
                .with_threads(1);
        drop(engine.exchange_merge_by_splitters(comm, &payload, &splitters, false, None));
        comm.barrier();
        let before = (comm.rank() == 0).then(|| (alloc_calls(), bytes_copied()));
        comm.barrier();
        let t0 = thread_cpu_ns();
        let merged = {
            let _s = trace::span(BENCH_CAT, "exchange.merge_ms");
            engine.exchange_merge_by_splitters(comm, &payload, &splitters, false, None)
        };
        let ns = thread_cpu_ns() - t0;
        comm.barrier();
        let deltas = before.map(|(a0, c0)| (alloc_calls() - a0, bytes_copied() - c0));
        // No PE allocates for the check before rank 0 has read the counters.
        comm.barrier();
        let ok = check_distributed_sort(comm, set, &merged).is_ok();
        (ns, deltas, ok)
    });
    let (allocs, copied) = res.values[0].1.expect("rank 0 reads the counters");
    r.put(
        "exchange.merge_ms",
        ms(max_of(res.values.iter().map(|v| v.0))),
    );
    r.put("exchange.bytes_copied", copied as f64);
    r.put("exchange.allocs", allocs as f64);
    r.check(res.values.iter().all(|v| v.2), "exchange");

    // net: the multi-level grid view MSML builds at this p.
    let dims = multi_grid_dims(p, 0);
    let res = run_spmd(p, run_config(seed), |comm| {
        let dims = dims.as_ref()?;
        comm.barrier();
        let t0 = thread_cpu_ns();
        let grid = {
            let _s = trace::span(BENCH_CAT, "net.grid_setup_ms");
            multi_grid_view(comm, dims)
        };
        Some((thread_cpu_ns() - t0, grid.partners_per_pe()))
    });
    let grid: Vec<(u64, usize)> = res.values.into_iter().flatten().collect();
    r.put("net.grid_setup_ms", ms(max_of(grid.iter().map(|v| v.0))));
    r.put(
        "net.partners_per_pe",
        grid.iter().map(|v| v.1).max().unwrap_or(0) as f64,
    );
    r.check(grid.len() == p, "grid view");
}
