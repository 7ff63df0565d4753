//! The exchange engine: step 3 of the merge-based algorithms — the
//! personalized all-to-all string exchange with the paper's LCP
//! compression — plus the shared "merge the received runs" step 4.
//!
//! [`StringAllToAll`] is the single codec-aware all-to-all implementation
//! of the crate. It owns the whole data-movement pipeline:
//!
//! * **splitter classification** — bucket bounds over the sorted local
//!   set, with optional duplicate tie-breaking (§VIII);
//! * **per-destination encoding** — plain, LCP-compressed or LCP-delta
//!   wire format, each destination buffer reserved to its exact encoded
//!   size so encoding never reallocates;
//! * **origin tagging** — PDMS-style origin tags ride along as a
//!   subslice, no per-bucket copy;
//! * **pooled decode scratch** — received runs are decoded into a ring of
//!   [`DecodedRun`]s owned by the engine, so repeated exchanges through
//!   the same engine (the grid levels of the merge sort, hQuick's
//!   placement, benchmark loops) reach steady state with near-zero
//!   decode-side allocations.
//!
//! The engine is topology-agnostic: it exchanges over whatever
//! communicator it is handed — the world communicator for the
//! single-level algorithms, one level's exchange communicator of a
//! [`dss_net::MultiGridComm`] for the grid ones. Because every bucket is
//! a contiguous slice of the *sorted* local set, its run-local LCP array
//! is just the corresponding slice of the local LCP array (first entry
//! zeroed); LCP compression then transmits each string as `(lcp, suffix)`
//! — repeated prefixes cross the wire exactly once (Fig. 2, step 3).
//!
//! ## Exchange modes
//!
//! Every data-movement entry point runs in one of two [`ExchangeMode`]s:
//!
//! * [`ExchangeMode::Blocking`] — encode every bucket, run one
//!   [`Comm::alltoallv`], then decode (and merge) after the last byte has
//!   arrived. The four pipeline stages serialize.
//! * [`ExchangeMode::Pipelined`] — post all receives up front
//!   ([`Comm::begin_alltoallv`]), encode destination buckets one at a
//!   time and ship each the moment it is ready, and decode (+ merge, for
//!   the fused [`StringAllToAll::exchange_merge_bounds`]) every arriving
//!   run while later sends are still in flight. Encode, transfer, decode
//!   and merge overlap; bytes, messages and latency rounds are accounted
//!   identically to the blocking path, and the output (including merged
//!   LCP arrays and origin tags) is byte-identical.

use crate::output::SortedRun;
use crate::partition::{bucket_bounds, bucket_bounds_tie_break};
use dss_codec::wire::{self, DecodedRun};
use dss_net::trace::{self, cat};
use dss_net::Comm;
use dss_strkit::lcp::lcp_compare;
use dss_strkit::losertree::{parallel_lcp_merge_into, parallel_plain_merge_into, MergeRun};
use dss_strkit::{StrRef, StringSet};
use std::sync::OnceLock;

/// How [`StringAllToAll`] moves its buckets (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// One blocking all-to-all; encode → transfer → decode → merge run
    /// strictly in sequence.
    Blocking,
    /// Non-blocking runtime underneath; encode/transfer/decode/merge
    /// overlap, with identical output and identical byte/message/round
    /// accounting.
    Pipelined,
}

/// Parses a `DSS_EXCHANGE_MODE` value: `blocking`/`pipelined`
/// (case-insensitive) map to their mode, `None` (unset) defaults to
/// [`ExchangeMode::Blocking`], and anything else **panics** with the
/// offending value — a typo like `DSS_EXCHANGE_MODE=piplined` must not
/// silently run the blocking path while CI believes it covered the
/// pipelined one.
pub fn parse_exchange_mode(raw: Option<&str>) -> ExchangeMode {
    match raw {
        None => ExchangeMode::Blocking,
        Some(v) if v.eq_ignore_ascii_case("blocking") => ExchangeMode::Blocking,
        Some(v) if v.eq_ignore_ascii_case("pipelined") => ExchangeMode::Pipelined,
        Some(v) => panic!("DSS_EXCHANGE_MODE must be 'blocking' or 'pipelined', got '{v}'"),
    }
}

impl ExchangeMode {
    /// The process-wide default mode: `DSS_EXCHANGE_MODE=pipelined` (or
    /// `blocking`, the unset default), read once and cached. This is the
    /// knob CI uses to force the whole test matrix through either path;
    /// unrecognized values panic (see [`parse_exchange_mode`]).
    pub fn from_env() -> ExchangeMode {
        static MODE: OnceLock<ExchangeMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("DSS_EXCHANGE_MODE") {
            Ok(v) => parse_exchange_mode(Some(&v)),
            Err(std::env::VarError::NotPresent) => parse_exchange_mode(None),
            Err(e) => panic!("DSS_EXCHANGE_MODE must be valid unicode: {e}"),
        })
    }

    /// Snapshot label (`"blocking"` / `"pipelined"`).
    pub fn label(&self) -> &'static str {
        match self {
            ExchangeMode::Blocking => "blocking",
            ExchangeMode::Pipelined => "pipelined",
        }
    }
}

impl Default for ExchangeMode {
    /// [`ExchangeMode::from_env`], so every config that derives `Default`
    /// honors the `DSS_EXCHANGE_MODE` knob.
    fn default() -> Self {
        ExchangeMode::from_env()
    }
}

/// Wire format of the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeCodec {
    /// Full strings, no LCP data (FKmerge, MS-simple, hQuick).
    Plain,
    /// First string full, rest as (lcp, suffix) — Algorithm MS.
    #[default]
    LcpCompressed,
    /// Like `LcpCompressed` with difference-coded LCP values (§VI-B).
    LcpDelta,
    /// Per-destination selection: each bucket ships in whichever of the
    /// three fixed formats encodes it smallest (exact sizes from one pass
    /// over data the classifier already touched, ties to the simpler
    /// codec), behind a 1-byte format tag. Short/low-LCP buckets stop
    /// paying the LCP-header overhead; long-LCP buckets keep the prefix
    /// compression. Decoded runs always carry exact run-local LCPs (they
    /// are recomputed after a plain-tagged decode), so downstream LCP
    /// merges — and the output — are byte-identical to the fixed codecs'.
    Auto,
}

/// Wire tags of [`ExchangeCodec::Auto`] messages (first byte of the
/// buffer, ahead of the self-delimiting run formats of `dss_codec::wire`,
/// which carry no format discriminator of their own).
const AUTO_TAG_PLAIN: u8 = 0;
const AUTO_TAG_LCP: u8 = 1;
const AUTO_TAG_DELTA: u8 = 2;

/// Picks the cheapest format for one bucket from its exact encoded sizes;
/// ties prefer the simpler codec (plain over LCP-headed, raw LCPs over
/// delta-coded).
pub(crate) fn auto_pick(lens: wire::EncodedLens) -> ExchangeCodec {
    if lens.plain <= lens.lcp && lens.plain <= lens.lcp_delta {
        ExchangeCodec::Plain
    } else if lens.lcp <= lens.lcp_delta {
        ExchangeCodec::LcpCompressed
    } else {
        ExchangeCodec::LcpDelta
    }
}

/// Rebuilds the exact run-local LCP array of a plain-decoded run, so a
/// plain-tagged [`ExchangeCodec::Auto`] arrival feeds the LCP merges the
/// same values an LCP-tagged one would have carried on the wire.
fn recompute_run_lcps(run: &mut DecodedRun) {
    for i in 1..run.bounds.len() {
        let (po, pl) = run.bounds[i - 1];
        let (o, l) = run.bounds[i];
        run.lcps[i] = dss_strkit::lcp::lcp(&run.data[po..po + pl], &run.data[o..o + l]);
    }
    run.has_lcps = true;
}

/// What one exchange ships: the sorted local set plus its side arrays.
pub struct ExchangePayload<'a> {
    /// Sorted local set.
    pub set: &'a StringSet,
    /// Its LCP array (ignored by [`ExchangeCodec::Plain`]).
    pub lcps: &'a [u32],
    /// Per-string origin tags to ship along (PDMS).
    pub origins: Option<&'a [u64]>,
    /// Per-string transmit lengths (PDMS: approximate distinguishing
    /// prefixes). `None` sends full strings.
    pub truncate: Option<&'a [u32]>,
}

impl<'a> ExchangePayload<'a> {
    fn send_len(&self, i: usize) -> usize {
        let full = self.set.get(i).len();
        match self.truncate {
            Some(t) => (t[i] as usize).min(full),
            None => full,
        }
    }
}

/// The codec-aware personalized all-to-all engine (see module docs).
///
/// One engine instance can serve any number of exchanges over any
/// communicators; its scratch buffers (encode-side run-local LCPs, bucket
/// bounds, decode-side [`DecodedRun`] ring) are grown once and reused.
pub struct StringAllToAll {
    codec: ExchangeCodec,
    mode: ExchangeMode,
    /// Merge threads for the fused exchange+merge entry points (routes
    /// the k-way merges through the range-split parallel trees).
    threads: usize,
    /// Run-local LCP scratch, reused across destinations.
    run_lcps: Vec<u32>,
    /// Pooled decode scratch ring, indexed by source PE.
    runs: Vec<DecodedRun>,
}

impl StringAllToAll {
    /// Engine with the given wire codec and the process-default
    /// [`ExchangeMode`] (the `DSS_EXCHANGE_MODE` knob). Merge threads
    /// default to the `DSS_THREADS` knob.
    pub fn new(codec: ExchangeCodec) -> Self {
        Self::with_mode(codec, ExchangeMode::default())
    }

    /// Engine with an explicit exchange mode (merge threads still default
    /// to the `DSS_THREADS` knob).
    pub fn with_mode(codec: ExchangeCodec, mode: ExchangeMode) -> Self {
        Self {
            codec,
            mode,
            threads: dss_strkit::sort::threads_from_env(),
            run_lcps: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Sets the number of threads the fused merge paths use (the
    /// range-split parallel loser trees; output stays byte-identical for
    /// every thread count).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be positive, got 0");
        self.threads = threads;
        self
    }

    /// The wire codec this engine encodes with.
    pub fn codec(&self) -> ExchangeCodec {
        self.codec
    }

    /// The exchange mode this engine moves data with.
    pub fn mode(&self) -> ExchangeMode {
        self.mode
    }

    /// The merge thread count of the fused exchange+merge entry points.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Classifies the sorted payload against `splitters` (`comm.size() − 1`
    /// of them, identical on every PE; `tie_break` spreads runs equal to a
    /// splitter per §VIII) and exchanges the buckets: bucket `i` travels
    /// to communicator rank `i`. Returns the decoded runs indexed by
    /// source rank; each run is sorted and carries its exact LCP array
    /// when an LCP codec is used.
    pub fn exchange_by_splitters(
        &mut self,
        comm: &Comm,
        payload: &ExchangePayload<'_>,
        splitters: &StringSet,
        tie_break: bool,
    ) -> &[DecodedRun] {
        let bounds = if tie_break {
            bucket_bounds_tie_break(payload.set, splitters)
        } else {
            bucket_bounds(payload.set, splitters)
        };
        self.exchange_bounds(comm, payload, &bounds)
    }

    /// Exchanges pre-computed buckets: `bounds[i]..bounds[i+1]` of the
    /// sorted payload travels to communicator rank `i`
    /// (`bounds.len() == comm.size() + 1`).
    pub fn exchange_bounds(
        &mut self,
        comm: &Comm,
        payload: &ExchangePayload<'_>,
        bounds: &[usize],
    ) -> &[DecodedRun] {
        let p = comm.size();
        debug_assert_eq!(bounds.len(), p + 1);
        if !matches!(self.codec, ExchangeCodec::Plain) {
            debug_assert_eq!(payload.lcps.len(), payload.set.len());
        }
        match self.mode {
            ExchangeMode::Blocking => {
                let mut msgs: Vec<Vec<u8>> = Vec::with_capacity(p);
                for dest in 0..p {
                    let (lo, hi) = (bounds[dest], bounds[dest + 1]);
                    msgs.push(self.encode_bucket(payload, lo, hi));
                }
                let received = {
                    // The blocking send window is the alltoallv itself;
                    // decodes start strictly after it, so the overlap
                    // ratio of this mode is exactly zero by construction.
                    let _w = trace::span(cat::SEND_WINDOW, "blocking");
                    comm.alltoallv(msgs)
                };
                self.decode_received(&received)
            }
            ExchangeMode::Pipelined => {
                self.ensure_runs(p);
                let mut ex = comm.begin_alltoallv();
                let r = comm.rank();
                {
                    // The pipelined send window spans the whole ship loop;
                    // decodes of early arrivals land inside it — that is
                    // the overlap the ratio measures.
                    let _w = trace::span(cat::SEND_WINDOW, "pipelined");
                    for i in 0..p {
                        let dest = (r + i) % p;
                        let buf = self.encode_bucket(payload, bounds[dest], bounds[dest + 1]);
                        ex.send(comm, dest, buf);
                        // Decode whatever has already landed while the
                        // remaining buckets are still being encoded/sent.
                        while let Some((src, buf)) = ex.poll_any(comm) {
                            self.decode_one(src, &buf);
                        }
                    }
                }
                while let Some((src, buf)) = ex.recv_any(comm) {
                    self.decode_one(src, &buf);
                }
                ex.finish(comm);
                &self.runs[..p]
            }
        }
    }

    /// Classifies, exchanges **and merges** in one call: the pipelined
    /// counterpart of `exchange_by_splitters` + `merge_received_*`, and
    /// the entry point every merge-based algorithm routes through.
    ///
    /// LCP codecs merge with the LCP loser tree (the result carries its
    /// exact LCP array); [`ExchangeCodec::Plain`] merges with the plain
    /// tree. In [`ExchangeMode::Blocking`] the phases run in sequence and
    /// the merge is attributed to `merge_phase` (when given) exactly as
    /// the unfused path would; in [`ExchangeMode::Pipelined`] arriving
    /// runs are decoded and merged *while later sends are still in
    /// flight*, so only the non-overlapped tail merge after the last
    /// arrival lands in `merge_phase`. Both modes return byte-identical
    /// results.
    pub fn exchange_merge_by_splitters(
        &mut self,
        comm: &Comm,
        payload: &ExchangePayload<'_>,
        splitters: &StringSet,
        tie_break: bool,
        merge_phase: Option<&str>,
    ) -> SortedRun {
        let bounds = if tie_break {
            bucket_bounds_tie_break(payload.set, splitters)
        } else {
            bucket_bounds(payload.set, splitters)
        };
        self.exchange_merge_bounds(comm, payload, &bounds, merge_phase)
    }

    /// [`Self::exchange_merge_by_splitters`] over pre-computed buckets.
    pub fn exchange_merge_bounds(
        &mut self,
        comm: &Comm,
        payload: &ExchangePayload<'_>,
        bounds: &[usize],
        merge_phase: Option<&str>,
    ) -> SortedRun {
        let lcp_merge = !matches!(self.codec, ExchangeCodec::Plain);
        match self.mode {
            ExchangeMode::Blocking => {
                let threads = self.threads;
                let runs = self.exchange_bounds(comm, payload, bounds);
                if let Some(phase) = merge_phase {
                    comm.set_phase(phase);
                }
                if lcp_merge {
                    merge_received_lcp(runs, threads)
                } else {
                    merge_received_plain(runs, threads)
                }
            }
            ExchangeMode::Pipelined => {
                self.exchange_merge_pipelined(comm, payload, bounds, merge_phase)
            }
        }
    }

    /// The overlapped path: receives posted up front, buckets encoded and
    /// shipped one at a time, arrivals decoded and incrementally merged
    /// between sends. Incremental merges combine only *adjacent* source
    /// ranges of equal width (a binary-counter cascade) and move handles
    /// only — characters stay in the decoded runs' arenas until
    /// [`SegmentAccumulator::finish`] copies each exactly once into the
    /// pre-sized output arena. Because every merge resolves equal strings
    /// to the lower source range — the loser trees' stream-index
    /// tie-break — the output reproduces the blocking k-way merge
    /// exactly, duplicates included.
    fn exchange_merge_pipelined(
        &mut self,
        comm: &Comm,
        payload: &ExchangePayload<'_>,
        bounds: &[usize],
        merge_phase: Option<&str>,
    ) -> SortedRun {
        let p = comm.size();
        let lcp_merge = !matches!(self.codec, ExchangeCodec::Plain);
        self.ensure_runs(p);
        let mut acc = SegmentAccumulator::new(lcp_merge);
        let mut ex = comm.begin_alltoallv();
        let r = comm.rank();
        {
            let _w = trace::span(cat::SEND_WINDOW, "pipelined");
            for i in 0..p {
                let dest = (r + i) % p;
                let buf = self.encode_bucket(payload, bounds[dest], bounds[dest + 1]);
                ex.send(comm, dest, buf);
                while let Some((src, buf)) = ex.poll_any(comm) {
                    self.decode_one(src, &buf);
                    acc.on_arrival(src, &self.runs);
                }
            }
        }
        while let Some((src, buf)) = ex.recv_any(comm) {
            self.decode_one(src, &buf);
            acc.on_arrival(src, &self.runs);
        }
        ex.finish(comm);
        if let Some(phase) = merge_phase {
            comm.set_phase(phase);
        }
        acc.finish(&self.runs)
    }

    /// Plain scatter: string `i` of (unsorted) `set` travels to
    /// communicator rank `dest_of[i]`, preserving relative order within
    /// each destination. hQuick's random placement step. Plain codec only
    /// — an arbitrary assignment has no sortedness to LCP-compress.
    pub fn scatter_plain(
        &mut self,
        comm: &Comm,
        set: &StringSet,
        dest_of: &[usize],
    ) -> &[DecodedRun] {
        debug_assert_eq!(dest_of.len(), set.len());
        debug_assert!(
            matches!(self.codec, ExchangeCodec::Plain),
            "scatter is plain-only"
        );
        let p = comm.size();
        // Bucket the indices per destination in one pass.
        let mut idxs: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (i, &d) in dest_of.iter().enumerate() {
            idxs[d].push(i);
        }
        let encode = |list: &[usize]| -> Vec<u8> {
            let _g = trace::span_args(
                cat::ENCODE,
                "encode",
                [("strings", list.len() as u64), ("", 0)],
            );
            let strings = || ExactIter::new(list.iter().map(|&i| set.get(i)), list.len());
            let exact = wire::encoded_len_plain(strings(), None);
            let mut buf = Vec::with_capacity(exact);
            wire::encode_plain(strings(), None, &mut buf);
            debug_assert_eq!(buf.len(), exact);
            dss_strkit::copyvol::record_copied(buf.len());
            buf
        };
        match self.mode {
            ExchangeMode::Blocking => {
                let msgs: Vec<Vec<u8>> = idxs.iter().map(|list| encode(list)).collect();
                let received = {
                    let _w = trace::span(cat::SEND_WINDOW, "blocking");
                    comm.alltoallv(msgs)
                };
                self.decode_received(&received)
            }
            ExchangeMode::Pipelined => {
                self.ensure_runs(p);
                let mut ex = comm.begin_alltoallv();
                let r = comm.rank();
                {
                    let _w = trace::span(cat::SEND_WINDOW, "pipelined");
                    for i in 0..p {
                        let dest = (r + i) % p;
                        ex.send(comm, dest, encode(&idxs[dest]));
                        while let Some((src, buf)) = ex.poll_any(comm) {
                            self.decode_one(src, &buf);
                        }
                    }
                }
                while let Some((src, buf)) = ex.recv_any(comm) {
                    self.decode_one(src, &buf);
                }
                ex.finish(comm);
                &self.runs[..p]
            }
        }
    }

    /// Serializes one bucket with the engine codec, reserved to its exact
    /// encoded size so encoding never reallocates mid-run.
    fn encode_bucket(&mut self, payload: &ExchangePayload<'_>, lo: usize, hi: usize) -> Vec<u8> {
        let _g = trace::span_args(
            cat::ENCODE,
            "encode",
            [("strings", (hi - lo) as u64), ("", 0)],
        );
        // Origin tags ride along as a subslice — no per-bucket copy.
        let origins_slice: Option<&[u64]> = payload.origins.map(|o| &o[lo..hi]);
        let strings = || {
            ExactIter::new(
                (lo..hi).map(|i| &payload.set.get(i)[..payload.send_len(i)]),
                hi - lo,
            )
        };
        match self.codec {
            ExchangeCodec::Plain => {
                let exact = wire::encoded_len_plain(strings(), origins_slice);
                let mut buf = Vec::with_capacity(exact);
                wire::encode_plain(strings(), origins_slice, &mut buf);
                debug_assert_eq!(buf.len(), exact);
                dss_strkit::copyvol::record_copied(buf.len());
                buf
            }
            ExchangeCodec::LcpCompressed | ExchangeCodec::LcpDelta => {
                self.fill_run_lcps(payload, lo, hi);
                let delta = self.codec == ExchangeCodec::LcpDelta;
                let exact = wire::encoded_len_lcp(strings(), &self.run_lcps, origins_slice, delta);
                let mut buf = Vec::with_capacity(exact);
                wire::encode_lcp(strings(), &self.run_lcps, origins_slice, delta, &mut buf);
                debug_assert_eq!(buf.len(), exact);
                dss_strkit::copyvol::record_copied(buf.len());
                buf
            }
            ExchangeCodec::Auto => {
                self.fill_run_lcps(payload, lo, hi);
                let lens = wire::encoded_len_all(strings(), &self.run_lcps, origins_slice);
                let pick = auto_pick(lens);
                let (tag, exact) = match pick {
                    ExchangeCodec::Plain => (AUTO_TAG_PLAIN, lens.plain),
                    ExchangeCodec::LcpCompressed => (AUTO_TAG_LCP, lens.lcp),
                    _ => (AUTO_TAG_DELTA, lens.lcp_delta),
                };
                let mut buf = Vec::with_capacity(1 + exact);
                buf.push(tag);
                match pick {
                    ExchangeCodec::Plain => wire::encode_plain(strings(), origins_slice, &mut buf),
                    _ => wire::encode_lcp(
                        strings(),
                        &self.run_lcps,
                        origins_slice,
                        tag == AUTO_TAG_DELTA,
                        &mut buf,
                    ),
                }
                debug_assert_eq!(buf.len(), 1 + exact);
                dss_strkit::copyvol::record_copied(buf.len());
                buf
            }
        }
    }

    /// Run-local LCPs of bucket `[lo, hi)`: slice of the global array,
    /// truncated to the transmitted lengths, first entry 0.
    fn fill_run_lcps(&mut self, payload: &ExchangePayload<'_>, lo: usize, hi: usize) {
        self.run_lcps.clear();
        self.run_lcps.extend((lo..hi).enumerate().map(|(k, i)| {
            if k == 0 {
                0
            } else {
                payload.lcps[i]
                    .min(payload.send_len(i - 1) as u32)
                    .min(payload.send_len(i) as u32)
            }
        }));
    }

    /// Grows the pooled scratch ring to its high-water mark.
    fn ensure_runs(&mut self, p: usize) {
        if self.runs.len() < p {
            self.runs.resize_with(p, DecodedRun::default);
        }
    }

    /// Decodes one received buffer into ring entry `src`.
    fn decode_one(&mut self, src: usize, buf: &[u8]) {
        let _g = trace::span_args(
            cat::DECODE,
            "decode",
            [("src", src as u64), ("bytes", buf.len() as u64)],
        );
        let run = &mut self.runs[src];
        let mut pos = 0;
        match self.codec {
            ExchangeCodec::Plain => wire::decode_plain_into(buf, &mut pos, run),
            ExchangeCodec::LcpCompressed | ExchangeCodec::LcpDelta => {
                wire::decode_lcp_into(buf, &mut pos, run)
            }
            ExchangeCodec::Auto => {
                pos = 1;
                match buf.first().copied() {
                    Some(AUTO_TAG_PLAIN) => {
                        wire::decode_plain_into(buf, &mut pos, run).map(|()| {
                            // The LCP values a fixed codec would have
                            // shipped; keeps the merge inputs — and thus
                            // the output — independent of the tag choice.
                            recompute_run_lcps(run);
                        })
                    }
                    Some(AUTO_TAG_LCP | AUTO_TAG_DELTA) => {
                        wire::decode_lcp_into(buf, &mut pos, run)
                    }
                    _ => None,
                }
            }
        }
        .expect("well-formed exchange run");
        debug_assert_eq!(pos, buf.len());
        dss_strkit::copyvol::record_copied(run.data.len());
    }

    /// Decodes the received buffers into the pooled scratch ring, growing
    /// it only on its high-water mark.
    fn decode_received(&mut self, received: &[Vec<u8>]) -> &[DecodedRun] {
        let p = received.len();
        self.ensure_runs(p);
        for (src, buf) in received.iter().enumerate() {
            self.decode_one(src, buf);
        }
        &self.runs[..p]
    }
}

/// Incremental-merge state of one pipelined exchange: every decoded
/// source run becomes a leaf segment, adjacent segments of equal width
/// merge as soon as both are available (a binary-counter cascade, so
/// total merge work stays at the k-way tree's `O(n log p)`), and
/// [`SegmentAccumulator::finish`] folds whatever remains and materializes
/// the output.
///
/// Merged segments are **ropes**, not copies: a merge produces only the
/// output *order* — `(source rank, index)` pairs into the engine's
/// decoded-run ring — plus the exact merged LCP array. The character
/// payload stays in the runs' arenas untouched through every cascade
/// level and is copied exactly once, at [`SegmentAccumulator::finish`],
/// into an output arena pre-sized to the exact total. The old cascade
/// re-copied every string once per level (`O(n log p)` chars); the rope
/// cascade moves `O(n log p)` *handles* but `O(n)` chars.
///
/// Segments always cover disjoint source-rank ranges and merges only
/// ever combine *adjacent* ranges, the lower range on the left with
/// equal strings resolved to the left. Since the loser trees of the
/// blocking path break ties by stream index — and stable two-way merges
/// of adjacent ranges compose associatively under that rule — the
/// accumulated sequence (strings, LCP array and origin tags alike) is
/// exactly what the blocking path's single k-way merge over all `p` runs
/// produces, duplicates included.
struct SegmentAccumulator {
    lcp_merge: bool,
    /// Available segments, ordered by `lo`, ranges pairwise disjoint.
    segs: Vec<Segment>,
}

struct Segment {
    /// Covered source-rank range `[lo, hi)`.
    lo: usize,
    hi: usize,
    data: SegData,
}

enum SegData {
    /// The decoded run of source `lo`, still in the engine's ring.
    Leaf,
    /// Merge result of two or more adjacent sources: the output order
    /// over the (unmoved) decoded runs, not a copy of their bytes.
    Rope {
        /// Output position `k` holds string `idx` of `runs[src]`.
        order: Vec<(u32, u32)>,
        /// Exact LCP array of the merged sequence, first entry 0 (left
        /// empty for plain merges).
        lcps: Vec<u32>,
    },
}

/// Read-only merge view of one segment: a leaf resolves through the
/// decoded run directly, a rope through its `(src, idx)` order.
struct SegView<'a> {
    runs: &'a [DecodedRun],
    kind: SegViewKind<'a>,
}

enum SegViewKind<'a> {
    Leaf {
        src: u32,
    },
    Rope {
        order: &'a [(u32, u32)],
        lcps: &'a [u32],
    },
}

impl<'a> SegView<'a> {
    fn new(seg: &'a Segment, runs: &'a [DecodedRun]) -> Self {
        let kind = match &seg.data {
            SegData::Leaf => SegViewKind::Leaf {
                src: u32::try_from(seg.lo).expect("rank fits u32"),
            },
            SegData::Rope { order, lcps } => SegViewKind::Rope { order, lcps },
        };
        Self { runs, kind }
    }

    fn len(&self) -> usize {
        match &self.kind {
            SegViewKind::Leaf { src } => self.runs[*src as usize].len(),
            SegViewKind::Rope { order, .. } => order.len(),
        }
    }

    /// `(src, idx)` of output position `i`.
    fn item(&self, i: usize) -> (u32, u32) {
        match &self.kind {
            SegViewKind::Leaf { src } => (*src, i as u32),
            SegViewKind::Rope { order, .. } => order[i],
        }
    }

    fn bytes(&self, i: usize) -> &'a [u8] {
        let (src, idx) = self.item(i);
        let run = &self.runs[src as usize];
        let (off, len) = run.bounds[idx as usize];
        &run.data[off..off + len]
    }

    /// LCP of position `i` with position `i - 1` (0 at position 0).
    fn lcp(&self, i: usize) -> u32 {
        match &self.kind {
            SegViewKind::Leaf { src } => self.runs[*src as usize].lcps[i],
            SegViewKind::Rope { lcps, .. } => lcps[i],
        }
    }
}

impl SegmentAccumulator {
    fn new(lcp_merge: bool) -> Self {
        Self {
            lcp_merge,
            segs: Vec::new(),
        }
    }

    /// Registers the freshly decoded run of `src` and performs every
    /// merge the equal-width cascade allows before returning to the wait
    /// loop.
    fn on_arrival(&mut self, src: usize, runs: &[DecodedRun]) {
        let at = self.segs.partition_point(|s| s.lo < src);
        debug_assert!(
            at == self.segs.len() || self.segs[at].lo != src,
            "duplicate arrival"
        );
        self.segs.insert(
            at,
            Segment {
                lo: src,
                hi: src + 1,
                data: SegData::Leaf,
            },
        );
        loop {
            let adjacent_equal = (0..self.segs.len().saturating_sub(1)).find(|&i| {
                let (a, b) = (&self.segs[i], &self.segs[i + 1]);
                a.hi == b.lo && a.hi - a.lo == b.hi - b.lo
            });
            let Some(i) = adjacent_equal else { break };
            let data = merge_pair(&self.segs[i], &self.segs[i + 1], runs, self.lcp_merge);
            let (lo, hi) = (self.segs[i].lo, self.segs[i + 1].hi);
            self.segs.splice(i..i + 2, [Segment { lo, hi, data }]);
        }
    }

    /// Folds the remaining segments into one rope and materializes the
    /// final [`SortedRun`] — the only point where character payload is
    /// copied, once, into an arena pre-sized to the exact totals.
    fn finish(mut self, runs: &[DecodedRun]) -> SortedRun {
        let _g = trace::span(cat::MERGE, "materialize");
        // Leftover segments have strictly decreasing widths (binary
        // counter), so folding right-to-left always merges the two
        // smallest first and keeps total handle movement at O(n log p).
        while self.segs.len() > 1 {
            let b = self.segs.pop().expect("len > 1");
            let a = self.segs.pop().expect("len > 1");
            debug_assert_eq!(a.hi, b.lo, "segments cover adjacent ranges");
            let data = merge_pair(&a, &b, runs, self.lcp_merge);
            self.segs.push(Segment {
                lo: a.lo,
                hi: b.hi,
                data,
            });
        }
        let Some(seg) = self.segs.pop() else {
            return SortedRun {
                set: StringSet::new(),
                lcps: self.lcp_merge.then(Vec::new),
                origins: Some(Vec::new()),
                local_store: None,
            };
        };
        let total_chars: usize = (seg.lo..seg.hi).map(|s| runs[s].data.len()).sum();
        let have_origins = (seg.lo..seg.hi).all(|s| runs[s].origins.is_some());
        match seg.data {
            // A single leaf (p == 1, or one non-empty run): wholesale
            // handover with no merge walk — the run is already sorted
            // with run-local LCPs, first entry 0.
            SegData::Leaf => {
                let run = &runs[seg.lo];
                let mut set = StringSet::with_capacity(run.len(), total_chars);
                for &(off, len) in &run.bounds {
                    set.push(&run.data[off..off + len]);
                }
                dss_strkit::copyvol::record_copied(total_chars);
                SortedRun {
                    set,
                    lcps: self.lcp_merge.then(|| run.lcps.clone()),
                    origins: run.origins.clone(),
                    local_store: None,
                }
            }
            SegData::Rope { order, lcps } => {
                let mut set = StringSet::with_capacity(order.len(), total_chars);
                for &(src, idx) in &order {
                    let run = &runs[src as usize];
                    let (off, len) = run.bounds[idx as usize];
                    set.push(&run.data[off..off + len]);
                }
                dss_strkit::copyvol::record_copied(total_chars);
                let origins = have_origins.then(|| {
                    order
                        .iter()
                        .map(|&(src, idx)| {
                            runs[src as usize].origins.as_ref().expect("checked")[idx as usize]
                        })
                        .collect()
                });
                SortedRun {
                    set,
                    lcps: self.lcp_merge.then_some(lcps),
                    origins,
                    local_store: None,
                }
            }
        }
    }
}

/// Two-way merges adjacent segments `a` (lower range) and `b` into a
/// rope, moving handles and LCP values only — no character payload.
///
/// The LCP path carries the classic invariant: each side's head keeps
/// its LCP with the last *emitted* string (`ha`/`hb`, both 0 before the
/// first emission). Unequal values decide without touching a byte — the
/// longer-prefix side is smaller, and the loser's value is already the
/// LCP with the new output string. Equal values fall through to
/// [`lcp_compare`] from the common prefix, which also yields the loser's
/// updated LCP. Equal strings resolve to `a` — the lower source range,
/// matching the loser trees' tie-break by stream index, so the cascade
/// reproduces the blocking k-way merge byte-for-byte.
fn merge_pair(a: &Segment, b: &Segment, runs: &[DecodedRun], lcp_merge: bool) -> SegData {
    let a = SegView::new(a, runs);
    let b = SegView::new(b, runs);
    let (na, nb) = (a.len(), b.len());
    let _g = trace::span_args(
        cat::MERGE,
        "cascade",
        [("strings", (na + nb) as u64), ("", 0)],
    );
    let mut order = Vec::with_capacity(na + nb);
    let mut lcps = Vec::with_capacity(if lcp_merge { na + nb } else { 0 });
    let (mut i, mut j) = (0usize, 0usize);
    if lcp_merge {
        let (mut ha, mut hb) = (0u32, 0u32);
        while i < na && j < nb {
            let take_a = match ha.cmp(&hb) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => {
                    let (ord, full) = lcp_compare(a.bytes(i), b.bytes(j), ha);
                    if ord != std::cmp::Ordering::Greater {
                        hb = full;
                        true
                    } else {
                        ha = full;
                        false
                    }
                }
            };
            if take_a {
                order.push(a.item(i));
                lcps.push(ha);
                i += 1;
                if i < na {
                    ha = a.lcp(i);
                }
            } else {
                order.push(b.item(j));
                lcps.push(hb);
                j += 1;
                if j < nb {
                    hb = b.lcp(j);
                }
            }
        }
        while i < na {
            order.push(a.item(i));
            lcps.push(ha);
            i += 1;
            if i < na {
                ha = a.lcp(i);
            }
        }
        while j < nb {
            order.push(b.item(j));
            lcps.push(hb);
            j += 1;
            if j < nb {
                hb = b.lcp(j);
            }
        }
    } else {
        while i < na && j < nb {
            if a.bytes(i) <= b.bytes(j) {
                order.push(a.item(i));
                i += 1;
            } else {
                order.push(b.item(j));
                j += 1;
            }
        }
        order.extend((i..na).map(|k| a.item(k)));
        order.extend((j..nb).map(|k| b.item(k)));
    }
    SegData::Rope { order, lcps }
}

/// Adapter: attach an exact size to any iterator (the wire encoder needs
/// `ExactSizeIterator` and range-map chains lose it).
pub(crate) struct ExactIter<I> {
    inner: I,
    remaining: usize,
}

impl<I> ExactIter<I> {
    pub(crate) fn new(inner: I, len: usize) -> Self {
        Self {
            inner,
            remaining: len,
        }
    }
}

impl<'a, I: Iterator<Item = &'a [u8]>> Iterator for ExactIter<I> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        let v = self.inner.next();
        if v.is_some() {
            self.remaining -= 1;
        }
        v
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, I: Iterator<Item = &'a [u8]>> ExactSizeIterator for ExactIter<I> {}

/// Merges received runs with the LCP loser tree — the range-split
/// parallel tree when `threads > 1`, with byte-identical output for
/// every thread count. Returns the local output with its exact LCP array
/// (and merged origin tags if present). On the sequential path
/// (`threads == 1` or small inputs) the output arena is pre-sized to the
/// exact run totals by `merge_into` and never reallocates mid-merge.
pub fn merge_received_lcp(runs: &[DecodedRun], threads: usize) -> SortedRun {
    let _g = trace::span_args(cat::MERGE, "kway", [("runs", runs.len() as u64), ("", 0)]);
    let ref_vecs: Vec<Vec<StrRef>> = runs.iter().map(run_refs).collect();
    let views: Vec<MergeRun<'_>> = runs
        .iter()
        .zip(&ref_vecs)
        .map(|(r, refs)| MergeRun {
            arena: &r.data,
            refs,
            lcps: &r.lcps,
        })
        .collect();
    let mut out = StringSet::new();
    let merged = parallel_lcp_merge_into(&views, &mut out, threads);
    let origins = collect_origins(runs, &merged.sources);
    SortedRun {
        set: out,
        lcps: merged.lcps,
        origins,
        local_store: None,
    }
}

/// Merges received runs with the plain loser tree (no LCP information).
/// Thread routing and output pre-sizing match [`merge_received_lcp`].
pub fn merge_received_plain(runs: &[DecodedRun], threads: usize) -> SortedRun {
    let _g = trace::span_args(cat::MERGE, "kway", [("runs", runs.len() as u64), ("", 0)]);
    let ref_vecs: Vec<Vec<StrRef>> = runs.iter().map(run_refs).collect();
    let views: Vec<MergeRun<'_>> = runs
        .iter()
        .zip(&ref_vecs)
        .map(|(r, refs)| MergeRun {
            arena: &r.data,
            refs,
            lcps: &r.lcps,
        })
        .collect();
    let mut out = StringSet::new();
    let merged = parallel_plain_merge_into(&views, &mut out, threads);
    let origins = collect_origins(runs, &merged.sources);
    SortedRun {
        set: out,
        lcps: None,
        origins,
        local_store: None,
    }
}

fn run_refs(run: &DecodedRun) -> Vec<StrRef> {
    run.bounds
        .iter()
        .map(|&(off, len)| StrRef {
            begin: u32::try_from(off).expect("run under 4 GiB"),
            len: u32::try_from(len).expect("string under 4 GiB"),
        })
        .collect()
}

fn collect_origins(runs: &[DecodedRun], sources: &[(u32, u32)]) -> Option<Vec<u64>> {
    if runs.iter().any(|r| r.origins.is_none()) {
        return None;
    }
    Some(
        sources
            .iter()
            .map(|&(run, idx)| runs[run as usize].origins.as_ref().expect("checked")[idx as usize])
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_net::runner::{run_spmd, RunConfig};
    use dss_strkit::sort::sort_with_lcp;
    use std::time::Duration;

    fn cfg_run() -> RunConfig {
        RunConfig {
            recv_timeout: Duration::from_secs(30),
            ..RunConfig::default()
        }
    }

    /// Two PEs swap their buckets and each merges; the concatenation must
    /// be the global sorted order, for every codec.
    fn roundtrip(codec: ExchangeCodec, lcp_merge: bool) {
        let res = run_spmd(2, cfg_run(), move |comm| {
            let mut set = if comm.rank() == 0 {
                StringSet::from_strs(&["snow", "alpha", "sorted", "algae"])
            } else {
                StringSet::from_strs(&["sorter", "alps", "orange", "algo"])
            };
            let lcps = sort_with_lcp(&mut set).0;
            let splitters = StringSet::from_strs(&["oo"]);
            let mut engine = StringAllToAll::new(codec);
            let runs = engine.exchange_by_splitters(
                comm,
                &ExchangePayload {
                    set: &set,
                    lcps: &lcps,
                    origins: None,
                    truncate: None,
                },
                &splitters,
                false,
            );
            let merged = if lcp_merge {
                merge_received_lcp(runs, 1)
            } else {
                merge_received_plain(runs, 1)
            };
            if let Some(l) = &merged.lcps {
                dss_strkit::lcp::verify_lcp_array(&merged.set, l).expect("merged lcps");
            }
            merged.set.to_vecs()
        });
        let all: Vec<Vec<u8>> = res.values.into_iter().flatten().collect();
        let mut expect: Vec<&str> = vec![
            "snow", "alpha", "sorted", "algae", "sorter", "alps", "orange", "algo",
        ];
        expect.sort_unstable();
        assert_eq!(
            all,
            expect
                .iter()
                .map(|s| s.as_bytes().to_vec())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn parse_mode_accepts_known_values_and_defaults_to_blocking() {
        assert_eq!(parse_exchange_mode(None), ExchangeMode::Blocking);
        for v in ["blocking", "Blocking", "BLOCKING"] {
            assert_eq!(parse_exchange_mode(Some(v)), ExchangeMode::Blocking);
        }
        for v in ["pipelined", "Pipelined", "PIPELINED"] {
            assert_eq!(parse_exchange_mode(Some(v)), ExchangeMode::Pipelined);
        }
    }

    /// Regression: an unrecognized mode used to silently coerce to
    /// `Blocking`, so a typo in `DSS_EXCHANGE_MODE` could run an entire
    /// CI matrix through the wrong path. It must fail loudly instead.
    #[test]
    #[should_panic(
        expected = "DSS_EXCHANGE_MODE must be 'blocking' or 'pipelined', got 'piplined'"
    )]
    fn parse_mode_rejects_unrecognized_values() {
        parse_exchange_mode(Some("piplined"));
    }

    #[test]
    #[should_panic(expected = "got ''")]
    fn parse_mode_rejects_empty_string() {
        parse_exchange_mode(Some(""));
    }

    #[test]
    fn plain_roundtrip() {
        roundtrip(ExchangeCodec::Plain, false);
    }

    #[test]
    fn lcp_roundtrip() {
        roundtrip(ExchangeCodec::LcpCompressed, true);
    }

    #[test]
    fn lcp_delta_roundtrip() {
        roundtrip(ExchangeCodec::LcpDelta, true);
    }

    #[test]
    fn auto_roundtrip() {
        roundtrip(ExchangeCodec::Auto, true);
    }

    fn lcp_array_of(strings: &[Vec<u8>]) -> Vec<u32> {
        let mut lcps = vec![0u32];
        for w in strings.windows(2) {
            lcps.push(dss_strkit::lcp::lcp(&w[0], &w[1]));
        }
        lcps.truncate(strings.len());
        lcps
    }

    /// The Auto selection heuristic on fixed buckets: disjoint short
    /// strings make the LCP headers pure overhead (→ Plain); a shared
    /// prefix ≥ 128 chars makes every raw LCP a 2-byte varint while the
    /// deltas stay 1 byte (→ LcpDelta). Sizes are the exact encoder
    /// outputs, so the pick is provably minimal.
    #[test]
    fn auto_selects_plain_for_low_lcp_and_delta_for_high_lcp() {
        let low: Vec<Vec<u8>> = (b'a'..=b'z').map(|c| vec![c]).collect();
        let low_lcps = lcp_array_of(&low);
        assert!(low_lcps.iter().all(|&l| l == 0));
        let lens = wire::encoded_len_all(
            ExactIter::new(low.iter().map(|s| s.as_slice()), low.len()),
            &low_lcps,
            None,
        );
        assert!(lens.plain < lens.lcp && lens.plain < lens.lcp_delta);
        assert_eq!(auto_pick(lens), ExchangeCodec::Plain);

        let base = "q".repeat(160);
        let high: Vec<Vec<u8>> = (0..64)
            .map(|i| format!("{base}{i:03}").into_bytes())
            .collect();
        let high_lcps = lcp_array_of(&high);
        assert!(high_lcps[1..].iter().all(|&l| l >= 128));
        let lens = wire::encoded_len_all(
            ExactIter::new(high.iter().map(|s| s.as_slice()), high.len()),
            &high_lcps,
            None,
        );
        assert!(lens.lcp_delta < lens.lcp && lens.lcp_delta < lens.plain);
        assert_eq!(auto_pick(lens), ExchangeCodec::LcpDelta);
    }

    /// End-to-end wire accounting of Auto: on a uniformly low-LCP input it
    /// ships exactly the plain encoding plus one tag byte per message; on
    /// a uniformly high-LCP input exactly the delta encoding plus the tag.
    #[test]
    fn auto_codec_tracks_the_cheapest_fixed_codec_on_the_wire() {
        // Exchange-phase (bytes_sent, msgs_sent) for one codec on one
        // workload. Every bucket (self bucket included) is non-empty and
        // uniformly low- or high-LCP, so Auto picks the same format for
        // all of them and the accounting is exact.
        let measure = |codec: ExchangeCodec, high_lcp: bool| -> (u64, u64) {
            let res = run_spmd(2, cfg_run(), move |comm| {
                let mut set = StringSet::new();
                let r = comm.rank() as u32;
                if high_lcp {
                    // Both buckets: ≥ 128 shared chars, small LCP deltas.
                    let base = "q".repeat(160);
                    for d in 0..2u32 {
                        for i in 0..100u32 {
                            set.push(format!("{d}{base}{i:02}{r}").as_bytes());
                        }
                    }
                } else {
                    // Both buckets: pairwise-disjoint single characters.
                    for c in b'a'..=b'z' {
                        set.push(&[c]);
                    }
                }
                let lcps = sort_with_lcp(&mut set).0;
                let splitters = StringSet::from_strs(&[if high_lcp { "1" } else { "n" }]);
                comm.set_phase("exchange");
                let mut engine = StringAllToAll::new(codec);
                let _ = engine.exchange_by_splitters(
                    comm,
                    &ExchangePayload {
                        set: &set,
                        lcps: &lcps,
                        origins: None,
                        truncate: None,
                    },
                    &splitters,
                    false,
                );
            });
            let ph = res
                .stats
                .phases
                .iter()
                .find(|p| p.name == "exchange")
                .expect("phase");
            (ph.total.bytes_sent, ph.total.msgs_sent)
        };
        for high_lcp in [false, true] {
            let (auto, auto_msgs) = measure(ExchangeCodec::Auto, high_lcp);
            let best = if high_lcp {
                let (delta, _) = measure(ExchangeCodec::LcpDelta, high_lcp);
                let (raw, _) = measure(ExchangeCodec::LcpCompressed, high_lcp);
                assert!(delta < raw, "high-LCP: delta {delta} should beat raw {raw}");
                delta
            } else {
                let (plain, _) = measure(ExchangeCodec::Plain, high_lcp);
                let (raw, _) = measure(ExchangeCodec::LcpCompressed, high_lcp);
                assert!(plain < raw, "low-LCP: plain {plain} should beat raw {raw}");
                plain
            };
            assert_eq!(
                auto,
                best + auto_msgs,
                "Auto must ship the best fixed encoding plus one tag byte per \
                 message (high_lcp = {high_lcp})"
            );
        }
    }

    /// A mixed workload — one low-LCP bucket, one long-shared-prefix
    /// bucket — where every fixed codec pays on one side: per-destination
    /// selection must beat all three despite the tag bytes.
    #[test]
    fn auto_codec_beats_every_fixed_codec_on_mixed_buckets() {
        let measure = |codec: ExchangeCodec| -> (u64, Vec<Vec<Vec<u8>>>) {
            let res = run_spmd(2, cfg_run(), move |comm| {
                let mut set = StringSet::new();
                let r = comm.rank() as u32;
                // Bucket for PE 0: single characters — the one shape the
                // LCP formats can only inflate (lcp 0 + suffix_len + char
                // vs len + char), so Plain must win this bucket.
                for i in 0..300u32 {
                    set.push(&[b'!' + (i % 20) as u8]);
                }
                // Bucket for PE 1: 160-char shared prefix.
                let base = "q".repeat(160);
                for i in 0..300u32 {
                    set.push(format!("{base}{:03}{r}", i).as_bytes());
                }
                let lcps = sort_with_lcp(&mut set).0;
                let splitters = StringSet::from_strs(&["5"]);
                comm.set_phase("exchange");
                let mut engine = StringAllToAll::new(codec);
                let runs = engine.exchange_by_splitters(
                    comm,
                    &ExchangePayload {
                        set: &set,
                        lcps: &lcps,
                        origins: None,
                        truncate: None,
                    },
                    &splitters,
                    false,
                );
                let merged = if matches!(codec, ExchangeCodec::Plain) {
                    merge_received_plain(runs, 1)
                } else {
                    merge_received_lcp(runs, 1)
                };
                if let Some(l) = &merged.lcps {
                    dss_strkit::lcp::verify_lcp_array(&merged.set, l).expect("merged lcps");
                }
                merged.set.to_vecs()
            });
            for (rank, v) in res.values.iter().enumerate() {
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "rank {rank} sorted");
            }
            let bytes = res
                .stats
                .phases
                .iter()
                .find(|p| p.name == "exchange")
                .expect("phase")
                .total
                .bytes_sent;
            (bytes, res.values)
        };
        let (auto, auto_out) = measure(ExchangeCodec::Auto);
        for fixed in [
            ExchangeCodec::Plain,
            ExchangeCodec::LcpCompressed,
            ExchangeCodec::LcpDelta,
        ] {
            let (bytes, out) = measure(fixed);
            assert!(
                auto < bytes,
                "Auto {auto} should undercut fixed {fixed:?} {bytes} on mixed buckets"
            );
            // Same per-PE output regardless of the wire format.
            assert_eq!(auto_out, out, "output differs from {fixed:?}");
        }
    }

    #[test]
    fn lcp_compression_sends_fewer_bytes_on_shared_prefixes() {
        let run = |codec: ExchangeCodec| -> u64 {
            let res = run_spmd(2, cfg_run(), move |comm| {
                // Long shared prefixes within each bucket; every string is
                // destined for the *other* PE so the data actually travels.
                let mut set = StringSet::new();
                for i in 0..200u32 {
                    set.push(format!("shared_prefix_{:02}_{:03}", 1 - comm.rank(), i).as_bytes());
                }
                let lcps = sort_with_lcp(&mut set).0;
                let splitters = StringSet::from_strs(&["shared_prefix_00_z"]);
                comm.set_phase("exchange");
                let mut engine = StringAllToAll::new(codec);
                let _ = engine.exchange_by_splitters(
                    comm,
                    &ExchangePayload {
                        set: &set,
                        lcps: &lcps,
                        origins: None,
                        truncate: None,
                    },
                    &splitters,
                    false,
                );
            });
            res.stats
                .phases
                .iter()
                .find(|p| p.name == "exchange")
                .expect("phase")
                .total
                .bytes_sent
        };
        let plain = run(ExchangeCodec::Plain);
        let compressed = run(ExchangeCodec::LcpCompressed);
        assert!(
            compressed * 2 < plain,
            "lcp-compressed {compressed} vs plain {plain}"
        );
    }

    /// Builds a DecodedRun the way the wire would deliver it: sorted, flat
    /// payload, exact run-local LCP array.
    fn decoded_run_of(strs: &[&str]) -> DecodedRun {
        let mut set = dss_strkit::StringSet::from_strs(strs);
        let lcps = sort_with_lcp(&mut set).0;
        let mut run = DecodedRun {
            has_lcps: true,
            lcps,
            ..DecodedRun::default()
        };
        for s in set.iter() {
            run.bounds.push((run.data.len(), s.len()));
            run.data.extend_from_slice(s);
        }
        run
    }

    /// The merge output arena is reserved to the exact totals up front:
    /// `StringSet::reserve` is exact, so any mid-merge growth would leave
    /// capacity above length. Guards the allocation-lean merge path.
    #[test]
    fn merge_output_arena_never_reallocates() {
        let runs = vec![
            decoded_run_of(&["snow", "sorbet", "sorter", "soul"]),
            decoded_run_of(&["algae", "algo", "alpha", "alps", "orange"]),
            decoded_run_of(&["order", "organ", "sorted"]),
        ];
        let expect_chars: usize = runs.iter().map(|r| r.data.len()).sum();
        let expect_n: usize = runs.iter().map(|r| r.len()).sum();
        for plain in [false, true] {
            let merged = if plain {
                merge_received_plain(&runs, 1)
            } else {
                merge_received_lcp(&runs, 1)
            };
            assert_eq!(merged.set.len(), expect_n);
            assert_eq!(merged.set.arena_len(), expect_chars);
            assert_eq!(
                merged.set.arena_capacity(),
                merged.set.arena_len(),
                "arena grew mid-merge (plain={plain})"
            );
            assert_eq!(merged.set.refs_capacity(), merged.set.len());
            assert!(merged.set.to_vecs().windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn truncation_limits_transmitted_prefixes() {
        let res = run_spmd(2, cfg_run(), |comm| {
            let mut set = StringSet::new();
            for i in 0..50u32 {
                set.push(
                    format!(
                        "{:02}_plus_long_tail_that_should_not_travel",
                        i + 50 * comm.rank() as u32
                    )
                    .as_bytes(),
                );
            }
            let lcps = sort_with_lcp(&mut set).0;
            let trunc: Vec<u32> = vec![3; set.len()];
            let origins: Vec<u64> = (0..set.len() as u64).collect();
            let splitters = StringSet::from_strs(&["50"]);
            let mut engine = StringAllToAll::new(ExchangeCodec::LcpCompressed);
            let runs = engine.exchange_by_splitters(
                comm,
                &ExchangePayload {
                    set: &set,
                    lcps: &lcps,
                    origins: Some(&origins),
                    truncate: Some(&trunc),
                },
                &splitters,
                false,
            );
            let merged = merge_received_lcp(runs, 1);
            assert!(merged.set.iter().all(|s| s.len() == 3));
            assert_eq!(
                merged.origins.as_ref().map(Vec::len),
                Some(merged.set.len())
            );
            merged.set.len()
        });
        assert_eq!(res.values.iter().sum::<usize>(), 100);
    }

    /// Scatter: strings land on their assigned PE in input order.
    #[test]
    fn scatter_routes_by_destination() {
        let res = run_spmd(3, cfg_run(), |comm| {
            let p = comm.size();
            let mut set = StringSet::new();
            for i in 0..30u32 {
                set.push(format!("r{}i{:02}", comm.rank(), i).as_bytes());
            }
            let dest_of: Vec<usize> = (0..set.len()).map(|i| i % p).collect();
            let mut engine = StringAllToAll::new(ExchangeCodec::Plain);
            let runs = engine.scatter_plain(comm, &set, &dest_of);
            // Run `src` holds exactly the strings src assigned to us, in order.
            let r = comm.rank();
            for (src, run) in runs.iter().enumerate() {
                let expect: Vec<Vec<u8>> = (0..30usize)
                    .filter(|i| i % p == r)
                    .map(|i| format!("r{src}i{i:02}").into_bytes())
                    .collect();
                let got: Vec<Vec<u8>> = run.iter().map(|s| s.to_vec()).collect();
                assert_eq!(got, expect, "src {src}");
            }
            runs.iter().map(|r| r.len()).sum::<usize>()
        });
        assert_eq!(res.values.iter().sum::<usize>(), 90);
    }

    /// The same engine run twice with identical data must not grow its
    /// pooled decode scratch: every `DecodedRun` buffer keeps its exact
    /// capacity from the first round.
    #[test]
    fn pooled_decode_scratch_is_stable_across_rounds() {
        let res = run_spmd(2, cfg_run(), |comm| {
            let mut set = StringSet::new();
            for i in 0..200u32 {
                set.push(format!("steady_{:03}_{}", i, comm.rank()).as_bytes());
            }
            let lcps = sort_with_lcp(&mut set).0;
            let splitters = StringSet::from_strs(&["steady_100"]);
            let payload = ExchangePayload {
                set: &set,
                lcps: &lcps,
                origins: None,
                truncate: None,
            };
            let mut engine = StringAllToAll::new(ExchangeCodec::LcpCompressed);
            let caps: Vec<(usize, usize, usize)> = engine
                .exchange_by_splitters(comm, &payload, &splitters, false)
                .iter()
                .map(|r| (r.data.capacity(), r.bounds.capacity(), r.lcps.capacity()))
                .collect();
            for round in 0..3 {
                let runs = engine.exchange_by_splitters(comm, &payload, &splitters, false);
                let now: Vec<(usize, usize, usize)> = runs
                    .iter()
                    .map(|r| (r.data.capacity(), r.bounds.capacity(), r.lcps.capacity()))
                    .collect();
                assert_eq!(caps, now, "scratch grew in round {round}");
            }
        });
        assert_eq!(res.values.len(), 2);
    }
}
