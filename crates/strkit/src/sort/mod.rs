//! Sequential string sorting with LCP-array output.
//!
//! The paper's base-case sorter stack (§II-A), reproducing the tlx
//! implementations: **MSD string radix sort** partitions by the character
//! at the current depth and recurses; blocks below a threshold fall back
//! to **multikey quicksort** (Bentley–Sedgewick), whose own base case is
//! **LCP-aware insertion sort**. All three produce the LCP array as a
//! by-product "at no additional cost" and inspect only distinguishing
//! prefix characters, giving O(D + n log σ) total work.
//!
//! Every sorter fills `lcps[1..n]` of the block it sorts and leaves
//! `lcps[0]` untouched (it is the boundary with the preceding block and
//! belongs to the caller; the facade sets the global `lcps[0] = 0`).

mod insertion;
mod mkqs;
mod parallel;
mod radix;
mod samplesort;

pub use insertion::lcp_insertion_sort_standalone;
pub use mkqs::multikey_quicksort_standalone;
pub use parallel::{
    par_sort_refs_with_lcp, par_sort_with_lcp, parse_dss_threads, threads_from_env, PAR_TASK_MIN,
};
pub use radix::msd_radix_sort_standalone;
pub use radix::RADIX16_MIN;
pub use samplesort::string_sample_sort_standalone;

use crate::arena::{StrRef, StringSet};

/// One pending work item of the task-granular sorter: the block's handles
/// live in `refs[begin..end]` (or, when `flipped`, in the same range of
/// the ping-pong scratch buffer), all share `depth` prefix characters,
/// and `lcps[begin]` (the boundary with the preceding block) has already
/// been written by whoever created the task. Both the sequential driver
/// ([`radix::msd_radix_sort`]'s LIFO stack) and the work-stealing
/// parallel driver (`parallel.rs`) schedule these items over the same
/// partition kernel, [`radix::partition_task`] — the two differ only in
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SortTask {
    pub begin: usize,
    pub end: usize,
    pub depth: u32,
    /// Ping-pong orientation: `false` = the block's current handles are
    /// in `refs`, `true` = in the scratch buffer (the parent's radix pass
    /// scattered them there and skipped the copy-back). The final sorted
    /// handles always land back in `refs` — terminal steps restore the
    /// orientation. See `radix.rs`.
    pub flipped: bool,
}

/// Block sizes below this use multikey quicksort instead of radix passes.
pub(crate) const RADIX_THRESHOLD: usize = 64;
/// Block sizes below this use LCP insertion sort.
///
/// Tuned on a 1-core host together with [`RADIX16_MIN`] (see the ROADMAP
/// tuning note); this constant is the single source of truth — all guards
/// reference it, nothing hard-codes the value.
pub const INSERTION_THRESHOLD: usize = 8;

/// Gather-loop lookahead distance of the software prefetches issued by
/// the radix passes (see `prefetch_str_char`): while processing string
/// `i`, the depth-character of string `i + PREFETCH_DIST` is pulled
/// towards L1 so the arena misses overlap instead of serializing.
///
/// Tuned on a 1-core host together with [`RADIX16_MIN`] (see the ROADMAP
/// tuning note); this constant is the single source of truth — all gather
/// loops reference it, nothing hard-codes the value.
pub const PREFETCH_DIST: usize = 16;

/// Hints the CPU to pull the depth-character of `r` into L1 ahead of the
/// gather loop's read. The arena fetches of a radix/mkqs pass are the
/// classic string-sorting cache miss (each string lives elsewhere in the
/// arena); a software prefetch `PREFETCH_DIST` elements ahead overlaps
/// those misses instead of serializing them. No-op off x86_64.
#[inline(always)]
pub(crate) fn prefetch_str_char(arena: &[u8], r: StrRef, depth: u32) {
    #[cfg(target_arch = "x86_64")]
    if depth < r.len {
        // SAFETY: `begin + depth < begin + len ≤ arena.len()` for every
        // well-formed handle, and prefetch has no architectural effect
        // beyond the cache regardless.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                arena.as_ptr().add((r.begin + depth) as usize) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (arena, r, depth);
    }
}

/// Work counters exposed by the sequential sorters. `chars_accessed`
/// approximates the paper's "characters inspected" measure (the quantity
/// lower-bounded by D).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SortStats {
    /// Character fetches performed while sorting.
    pub chars_accessed: u64,
}

impl SortStats {
    /// Merges counters from a sub-computation.
    pub fn absorb(&mut self, other: SortStats) {
        self.chars_accessed += other.chars_accessed;
    }
}

/// Shared sorting context: the arena, reusable scratch buffers and work
/// counters. One `Ctx` lives per top-level sort call; scratch memory is
/// recycled across radix passes (a hot-loop allocation would dominate).
pub(crate) struct Ctx<'a> {
    pub arena: &'a [u8],
    pub stats: SortStats,
    /// Scratch handles for sample sort's out-of-place bucket scatter.
    /// (The radix passes ping-pong between the handle array and a
    /// dedicated full-length scratch buffer instead — see `radix.rs`.)
    pub ref_scratch: Vec<StrRef>,
    /// Cached bucket keys so each radix pass gathers characters once.
    pub key_scratch: Vec<u8>,
    /// Caching mkqs: per-string depth-characters, swapped along with the
    /// handles (see `mkqs.rs`). Kept out of `key_scratch`, which the
    /// radix passes use for their own gathered bucket keys.
    pub mkqs_cache: Vec<u8>,
    /// Caching mkqs task stack, reused across the thousands of small
    /// blocks one radix sort hands over.
    pub mkqs_stack: Vec<mkqs::Task>,
    /// 16-bit radix: bucket counters (allocated on first large block),
    /// zeroed via `used16` after every pass.
    pub count16: Vec<u32>,
    /// 16-bit radix: gathered character-pair keys.
    pub key16_scratch: Vec<u16>,
    /// 16-bit radix: occupied bucket keys of the current pass.
    pub used16: Vec<u16>,
    /// 16-bit radix: `(key, start offset)` of each occupied bucket.
    pub bucket16: Vec<(u16, u32)>,
}

impl<'a> Ctx<'a> {
    pub fn new(arena: &'a [u8]) -> Self {
        Self {
            arena,
            stats: SortStats::default(),
            ref_scratch: Vec::new(),
            key_scratch: Vec::new(),
            mkqs_cache: Vec::new(),
            mkqs_stack: Vec::new(),
            count16: Vec::new(),
            key16_scratch: Vec::new(),
            used16: Vec::new(),
            bucket16: Vec::new(),
        }
    }

    /// Borrows the bytes of a handle.
    #[inline]
    pub fn bytes(&self, r: StrRef) -> &'a [u8] {
        &self.arena[r.begin as usize..r.end() as usize]
    }

    /// LCP-extending three-way comparison from known common prefix `h`,
    /// charging the inspected characters to the stats.
    #[inline]
    pub fn lcp_compare(&mut self, a: StrRef, b: StrRef, h: u32) -> (std::cmp::Ordering, u32) {
        let (ord, full) = crate::lcp::lcp_compare(self.bytes(a), self.bytes(b), h);
        self.stats.chars_accessed += (full - h.min(full)) as u64 + 1;
        (ord, full)
    }
}

/// Sorts `refs` (handles into `arena`), writing the block's LCP entries
/// into `lcps[1..]`. The main entry point used by the distributed
/// algorithms for their local sorting step.
pub fn sort_refs_with_lcp(arena: &[u8], refs: &mut [StrRef], lcps: &mut [u32]) -> SortStats {
    assert_eq!(refs.len(), lcps.len());
    debug_assert_no_sentinel(arena, refs);
    if refs.is_empty() {
        return SortStats::default();
    }
    let mut ctx = Ctx::new(arena);
    let mut scratch = radix::scratch_for(refs.len());
    radix::msd_radix_sort(&mut ctx, refs, &mut scratch, lcps, 0);
    lcps[0] = 0;
    ctx.stats
}

/// Debug-build guard of the sorters' precondition: no string contains
/// byte 0, the implicit end-of-string sentinel.
pub(crate) fn debug_assert_no_sentinel(arena: &[u8], refs: &[StrRef]) {
    debug_assert!(
        refs.iter()
            .all(|r| !arena[r.begin as usize..r.end() as usize].contains(&0)),
        "strings must not contain the 0 sentinel byte"
    );
}

/// Sorts a [`StringSet`] in place and returns its LCP array plus work
/// counters.
pub fn sort_with_lcp(set: &mut StringSet) -> (Vec<u32>, SortStats) {
    let mut lcps = vec![0u32; set.len()];
    let (arena, refs) = set.as_parts_mut();
    let stats = sort_refs_with_lcp(arena, refs, &mut lcps);
    (lcps, stats)
}

/// Reference comparison sort (std sort + naive LCP recomputation).
/// Oracle for tests and the "atomic sorting is wasteful" baselines.
pub fn naive_sort_with_lcp(set: &mut StringSet) -> Vec<u32> {
    let (arena, refs) = set.as_parts_mut();
    refs.sort_by(|&a, &b| {
        arena[a.begin as usize..a.end() as usize].cmp(&arena[b.begin as usize..b.end() as usize])
    });
    crate::lcp::lcp_array_naive(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::verify_lcp_array;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn check_sorted_with_lcp(mut set: StringSet) {
        let mut expect = set.to_vecs();
        expect.sort();
        let (lcps, _) = sort_with_lcp(&mut set);
        assert_eq!(set.to_vecs(), expect, "sorted order mismatch");
        verify_lcp_array(&set, &lcps).expect("lcp array");
    }

    #[test]
    fn sorts_paper_example() {
        let set = StringSet::from_strs(&[
            "alpha", "order", "alps", "algae", "sorter", "snow", "algo", "sorbet", "sorted",
            "orange", "soul", "organ",
        ]);
        check_sorted_with_lcp(set);
    }

    #[test]
    fn sorts_empty_and_tiny() {
        check_sorted_with_lcp(StringSet::new());
        check_sorted_with_lcp(StringSet::from_strs(&["one"]));
        check_sorted_with_lcp(StringSet::from_strs(&["b", "a"]));
        check_sorted_with_lcp(StringSet::from_strs(&["", "", ""]));
    }

    #[test]
    fn sorts_duplicates_and_prefixes() {
        check_sorted_with_lcp(StringSet::from_strs(&[
            "aaa", "aa", "a", "", "aaa", "aab", "aa", "aaaa", "aaa",
        ]));
    }

    #[test]
    fn sorts_all_equal_large() {
        let strs = vec!["samestring"; 500];
        check_sorted_with_lcp(StringSet::from_strs(&strs));
    }

    #[test]
    fn sorts_single_char_alphabet() {
        // Unary strings of varying length: exercises the bucket-0 path.
        let mut rng = StdRng::seed_from_u64(7);
        let mut set = StringSet::new();
        for _ in 0..300 {
            let len = rng.gen_range(0..40);
            set.push(&vec![b'a'; len]);
        }
        check_sorted_with_lcp(set);
    }

    #[test]
    fn sorts_random_large() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut set = StringSet::new();
        for _ in 0..5000 {
            let len = rng.gen_range(0..30);
            let s: Vec<u8> = (0..len).map(|_| rng.gen_range(b'a'..=b'e')).collect();
            set.push(&s);
        }
        check_sorted_with_lcp(set);
    }

    #[test]
    fn sorts_long_common_prefixes() {
        let mut set = StringSet::new();
        let prefix = vec![b'x'; 1000];
        for i in 0..200u32 {
            let mut s = prefix.clone();
            s.extend_from_slice(format!("{:04}", 199 - i).as_bytes());
            set.push(&s);
        }
        check_sorted_with_lcp(set);
    }

    #[test]
    fn work_is_near_distinguishing_prefix() {
        // n strings sharing no prefixes: work must be O(n log σ + n), far
        // below total characters N.
        let mut set = StringSet::new();
        let filler = vec![b'z'; 500];
        for i in 0..1000u32 {
            let mut s = format!("{:03}", i % 1000).into_bytes();
            s.extend_from_slice(&filler);
            set.push(&s);
        }
        let total_chars: u64 = set.num_chars() as u64;
        let (lcps, stats) = sort_with_lcp(&mut set);
        verify_lcp_array(&set, &lcps).unwrap();
        // Distinguishing prefixes are ≤ 4 chars here; radix/mkqs overhead
        // is a small constant factor. N is 500x larger.
        assert!(
            stats.chars_accessed < total_chars / 10,
            "inspected {} of {} chars",
            stats.chars_accessed,
            total_chars
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sorts_random_inputs(strs in proptest::collection::vec(
            proptest::collection::vec(b'a'..=b'd', 0..16), 0..120)) {
            let set = StringSet::from_iter_bytes(strs.iter().map(|s| s.as_slice()));
            let mut expect = strs.clone();
            expect.sort();
            let mut set = set;
            let (lcps, _) = sort_with_lcp(&mut set);
            prop_assert_eq!(set.to_vecs(), expect);
            prop_assert!(verify_lcp_array(&set, &lcps).is_ok());
        }

        #[test]
        fn agrees_with_naive_sort(strs in proptest::collection::vec(
            proptest::collection::vec(b'f'..=b'h', 0..10), 0..60)) {
            let mut a = StringSet::from_iter_bytes(strs.iter().map(|s| s.as_slice()));
            let mut b = a.clone();
            let (lcps, _) = sort_with_lcp(&mut a);
            let naive_lcps = naive_sort_with_lcp(&mut b);
            prop_assert_eq!(a.to_vecs(), b.to_vecs());
            prop_assert_eq!(lcps, naive_lcps);
        }
    }
}
