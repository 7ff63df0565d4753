//! One evaluation cell: generate shards, run the sorter between barrier
//! fences, check, account. [`measure`] is the only way the bench binaries
//! run a distributed sorter.

use crate::cli::Args;
use crate::counters::Counters;
use dss_gen::Workload;
use dss_net::runner::{run_spmd, RunConfig};
use dss_net::{trace, Comm, CostModel, NetStats};
use dss_sort::checker::check_distributed_sort;
use dss_sort::DistSorter;
use std::time::{Duration, Instant};

/// How [`measure`] runs a cell.
#[derive(Debug, Clone)]
pub struct MeasureOpts {
    /// Workload seed: every PE generates its shard from it.
    pub seed: u64,
    /// Repetitions (see [`Measurement`] for how they combine).
    pub reps: usize,
    /// Run the distributed correctness check after the sort.
    pub check: bool,
    /// α–β cost model of the modeled time.
    pub model: CostModel,
    /// Simulator configuration: the PEs' RNG seed (random sampling and
    /// hQuick's placement draw from it), worker threads per PE for the
    /// oversubscription correction, and the receive timeout.
    pub run: RunConfig,
}

impl MeasureOpts {
    /// One checked rep under the default cost model, with the simulator
    /// seeded by `seed` as well.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            reps: 1,
            check: true,
            model: CostModel::default(),
            run: RunConfig {
                seed,
                recv_timeout: Duration::from_secs(300),
                ..RunConfig::default()
            },
        }
    }

    /// The figure binaries' shared flags: `--seed` (default 20260611),
    /// `--reps` (default 3), `--no-check`, and the cost model's
    /// `--alpha-us` / `--beta-ns` (defaults 5 µs, 1 ns/B).
    pub fn from_args(args: &Args) -> Self {
        Self {
            reps: args.get("reps", 3),
            check: !args.has("no-check"),
            model: CostModel {
                alpha_ns: args.get("alpha-us", 5.0f64) * 1e3,
                beta_ns_per_byte: args.get("beta-ns", 1.0f64),
            },
            ..Self::new(args.get("seed", 20260611))
        }
    }
}

/// Result of one `(sorter, workload, p)` cell.
///
/// Repetitions: wall time, modeled time, allocations and `bytes_copied`
/// each keep their minimum over reps ([`Self::stats`] is the rep with the
/// smallest modeled time). `n`, chars, bytes sent, messages and rounds
/// are deterministic and asserted identical across reps; a failed check
/// in any rep is kept.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm label.
    pub label: &'static str,
    /// Workload label.
    pub workload: String,
    pub p: usize,
    /// Global string count.
    pub n: usize,
    /// Global character count.
    pub chars: usize,
    /// Statistics of the sort phases only (generation, the fences and the
    /// check are excluded, as the paper measures sorting only).
    pub stats: NetStats,
    /// The cost model [`Self::modeled`] applies.
    pub model: CostModel,
    /// Max-PE wall time of the fenced sort region (oversubscribed host
    /// threads; informational).
    pub wall: Duration,
    /// Process-wide allocator and copy-volume deltas of the fenced sort
    /// region, covering every PE.
    pub counters: Counters,
    /// Send-window overlap ratio over the reps' spans (tracing on only).
    pub overlap_ratio: Option<f64>,
    /// Every rep's drained trace, merged (tracing on only).
    pub trace: Option<trace::Trace>,
    /// The distributed checker's verdict (`None` when not checked).
    pub check: Option<Result<(), String>>,
}

impl Measurement {
    /// Modeled time under [`Self::model`].
    pub fn modeled(&self) -> Duration {
        self.stats.modeled_time(&self.model)
    }

    /// Compute part of the model: Σ max-per-PE compute per phase.
    pub fn compute(&self) -> Duration {
        Duration::from_nanos(self.stats.bottleneck().compute_ns)
    }

    /// Communication part of the model: Σ (α·rounds + β·bottleneck bytes).
    pub fn comm_modeled(&self) -> Duration {
        self.modeled().saturating_sub(self.compute())
    }

    /// The paper's headline volume metric.
    pub fn bytes_per_string(&self) -> f64 {
        self.stats.total_bytes_sent() as f64 / self.n.max(1) as f64
    }

    /// `ok`, `FAIL` or `skipped`.
    pub fn check_label(&self) -> &'static str {
        match self.check {
            Some(Ok(())) => "ok",
            Some(Err(_)) => "FAIL",
            None => "skipped",
        }
    }
}

/// Phases that are not part of the sort: the shard generation, the
/// fences, the check, and the runner's initial phase.
fn is_sort_phase(name: &str) -> bool {
    !matches!(name, "generate" | "drain" | "check" | "main")
}

/// Runs `work` between barrier fences of `comm` and returns its result,
/// this PE's wall time of `work`, and — on rank 0 only, zeros elsewhere —
/// the process-wide [`Counters`] delta over the fenced region, which
/// covers every PE's work and nothing else:
///
/// 1. barrier, then rank 0 reads the counters;
/// 2. barrier: barrier exits are not synchronized, so without it a fast
///    PE could start `work` before rank 0 takes its reading;
/// 3. `work`, then phase `drain` and a barrier; rank 0 reads again;
/// 4. barrier, so no PE's next work (e.g. the check) leaks into that
///    reading.
pub fn fenced<T>(comm: &Comm, work: impl FnOnce() -> T) -> (T, Duration, Counters) {
    comm.barrier();
    let before = (comm.rank() == 0).then(Counters::now);
    comm.barrier();
    let t0 = Instant::now();
    let out = work();
    let wall = t0.elapsed();
    comm.set_phase("drain");
    comm.barrier();
    let delta = before.map(Counters::since).unwrap_or_default();
    comm.barrier();
    (out, wall, delta)
}

/// Send-window overlap ratio of a trace: the share of the exchange's
/// [`trace::cat::SEND_WINDOW`] spans covered by decode/merge work.
/// `None` if the streams do not pair.
pub fn overlap_ratio(t: &trace::Trace) -> Option<f64> {
    trace::pair_spans(t).ok().map(|spans| {
        trace::overlap_ratio(
            spans.iter().filter(|s| s.cat == trace::cat::SEND_WINDOW),
            spans
                .iter()
                .filter(|s| s.cat == trace::cat::DECODE || s.cat == trace::cat::MERGE),
        )
    })
}

/// Concatenates drained traces into one. Streams were drained at
/// quiescent points, so each `ThreadTrace` entry pairs on its own; a tid
/// appearing in several entries is fine — timestamps share one epoch.
pub fn merge_traces(traces: impl IntoIterator<Item = trace::Trace>) -> trace::Trace {
    let mut merged = trace::Trace::default();
    for t in traces {
        merged.dropped += t.dropped;
        merged.threads.extend(t.threads);
    }
    merged
}

/// Measures one cell: on `p` simulated PEs, every PE generates its shard
/// of `workload` (phase `generate`), runs `sorter` inside [`fenced`], and
/// then — if `opts.check` — runs [`check_distributed_sort`] (phase
/// `check`). Repeated `opts.reps` times; see [`Measurement`].
pub fn measure(
    label: &'static str,
    sorter: &dyn DistSorter,
    workload: &Workload,
    p: usize,
    opts: &MeasureOpts,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    let mut traces = Vec::new();
    for _ in 0..opts.reps.max(1) {
        let res = run_spmd(p, opts.run.clone(), |comm| {
            comm.set_phase("generate");
            let shard = workload.generate(comm.rank(), comm.size(), opts.seed);
            let (n, chars) = (shard.len(), shard.num_chars());
            let input = opts.check.then(|| shard.clone());
            let (out, wall, counters) = fenced(comm, || sorter.sort(comm, shard));
            comm.set_phase("check");
            let check = input.map(|input| check_distributed_sort(comm, &input, &out));
            (n, chars, wall, counters, check)
        });
        if trace::enabled() {
            traces.push(trace::take());
        }
        let mut stats = res.stats;
        stats.phases.retain(|ph| is_sort_phase(&ph.name));
        let m = Measurement {
            label,
            workload: workload.label(),
            p,
            n: res.values.iter().map(|v| v.0).sum(),
            chars: res.values.iter().map(|v| v.1).sum(),
            stats,
            model: opts.model,
            wall: res.values.iter().map(|v| v.2).max().expect("p >= 1"),
            counters: res.values[0].3,
            overlap_ratio: None,
            trace: None,
            check: opts.check.then(|| {
                res.values
                    .iter()
                    .find_map(|v| v.4.clone().and_then(Result::err))
                    .map_or(Ok(()), Err)
            }),
        };
        best = Some(match best {
            None => m,
            Some(b) => combine_reps(b, m),
        });
    }
    let mut m = best.expect("reps >= 1");
    if !traces.is_empty() {
        let t = merge_traces(traces);
        m.overlap_ratio = overlap_ratio(&t);
        m.trace = Some(t);
    }
    m
}

/// Folds one more rep into the running result (the rule documented on
/// [`Measurement`]).
fn combine_reps(b: Measurement, r: Measurement) -> Measurement {
    let what = format!("{} on {} at p={}", b.label, b.workload, b.p);
    assert_eq!((b.n, b.chars), (r.n, r.chars), "{what}: input changed");
    let (bt, rt) = (b.stats.totals(), r.stats.totals());
    assert_eq!(
        (bt.bytes_sent, bt.msgs_sent, bt.rounds),
        (rt.bytes_sent, rt.msgs_sent, rt.rounds),
        "{what}: bytes/messages/rounds differ between reps"
    );
    let wall = b.wall.min(r.wall);
    let counters = b.counters.min(r.counters);
    let check = match (&b.check, &r.check) {
        (Some(Err(_)), _) => b.check.clone(),
        _ => r.check.clone(),
    };
    let keep = if r.modeled() < b.modeled() { r } else { b };
    Measurement {
        wall,
        counters,
        check,
        ..keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_sort::Algorithm;

    fn opts(seed: u64, check: bool) -> MeasureOpts {
        MeasureOpts {
            check,
            ..MeasureOpts::new(seed)
        }
    }

    #[test]
    fn measurement_runs_and_checks() {
        let w = Workload::DnRatio {
            n_per_pe: 100,
            len: 50,
            r: 0.5,
            sigma: 16,
        };
        let alg = Algorithm::Ms;
        let m = measure(alg.label(), &*alg.instance(), &w, 3, &opts(42, true));
        assert_eq!(m.check, Some(Ok(())));
        assert_eq!(m.n, 300);
        assert_eq!(m.chars, 15_000);
        assert!(m.stats.total_bytes_sent() > 0);
        assert!(m.bytes_per_string() > 0.0);
        assert!(m.modeled() >= m.compute());
        let phases: Vec<&str> = m.stats.phases.iter().map(|p| p.name.as_str()).collect();
        assert!(phases.contains(&"local_sort") && phases.contains(&"exchange"));
        assert!(phases.iter().all(|p| is_sort_phase(p)), "{phases:?}");
        // The fenced region covers every PE's sort: it allocates and
        // copies (other test threads may add to the process-wide
        // counters, so only a lower bound holds).
        assert!(m.counters.allocs > 0 && m.counters.bytes_copied > 0);
    }

    #[test]
    fn accounting_excludes_generation_and_check() {
        let w = Workload::DnRatio {
            n_per_pe: 50,
            len: 30,
            r: 0.0,
            sigma: 16,
        };
        let alg = Algorithm::MsSimple;
        let with_check = measure(alg.label(), &*alg.instance(), &w, 2, &opts(7, true));
        let without = measure(alg.label(), &*alg.instance(), &w, 2, &opts(7, false));
        assert_eq!(
            with_check.stats.total_bytes_sent(),
            without.stats.total_bytes_sent()
        );
        assert_eq!(without.check, None);
    }

    #[test]
    fn reps_keep_volumes_and_minimum_costs() {
        let w = Workload::Web { n_per_pe: 80 };
        let alg = Algorithm::Pdms;
        let one = measure(alg.label(), &*alg.instance(), &w, 4, &opts(5, true));
        let three = measure(
            alg.label(),
            &*alg.instance(),
            &w,
            4,
            &MeasureOpts {
                reps: 3,
                ..opts(5, true)
            },
        );
        assert_eq!(
            one.stats.totals().bytes_sent,
            three.stats.totals().bytes_sent
        );
        assert_eq!(three.check, Some(Ok(())));
    }

    #[test]
    fn all_algorithms_pass_check_on_small_cell() {
        let w = Workload::Web { n_per_pe: 60 };
        for alg in Algorithm::all_extended() {
            let m = measure(alg.label(), &*alg.instance(), &w, 4, &opts(99, true));
            assert_eq!(m.check, Some(Ok(())), "{} failed the check", m.label);
        }
    }
}
