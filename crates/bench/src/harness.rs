//! One evaluation cell: generate shards, run the sorter, check, account.

use dss_gen::Workload;
use dss_net::runner::{run_spmd, RunConfig};
use dss_net::CostModel;
use dss_sort::checker::check_distributed_sort;
use dss_sort::{Algorithm, DistSorter};
use std::time::Duration;

/// Result of one `(algorithm, workload, p)` cell.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub algorithm: &'static str,
    pub workload: String,
    pub p: usize,
    /// Global string count.
    pub n: usize,
    /// Global character count.
    pub n_chars: usize,
    /// Modeled time under the α–β cost model (compute + communication).
    pub modeled: Duration,
    /// Communication part of the model: Σ (α·rounds + β·bottleneck bytes).
    pub comm_modeled: Duration,
    /// Compute part: Σ max-per-PE compute per phase.
    pub compute_max: Duration,
    /// Wall time of the simulator run (oversubscribed; informational).
    pub wall: Duration,
    /// Total payload bytes sent across all PEs.
    pub bytes_sent: u64,
    /// The paper's headline volume metric.
    pub bytes_per_string: f64,
    /// Per-phase modeled milliseconds, for breakdowns.
    pub phase_ms: Vec<(String, f64)>,
    /// Whether the distributed checker accepted the output.
    pub check_ok: bool,
}

/// Runs one cell `reps` times, keeping the run with the smallest modeled
/// time (volumes are deterministic and identical across reps; repetition
/// only de-noises the measured compute term).
pub fn run_repeated(
    label: &'static str,
    sorter: &dyn DistSorter,
    workload: &Workload,
    p: usize,
    seed: u64,
    check: bool,
    reps: usize,
) -> ExperimentResult {
    run_repeated_with_model(
        label,
        sorter,
        workload,
        p,
        seed,
        check,
        reps,
        &CostModel::default(),
    )
}

/// [`run_repeated`] with an explicit α–β cost model (the figure binaries
/// expose `--alpha-us` / `--beta-ns` for scale calibration).
#[allow(clippy::too_many_arguments)]
pub fn run_repeated_with_model(
    label: &'static str,
    sorter: &dyn DistSorter,
    workload: &Workload,
    p: usize,
    seed: u64,
    check: bool,
    reps: usize,
    model: &CostModel,
) -> ExperimentResult {
    let mut best: Option<ExperimentResult> = None;
    for _ in 0..reps.max(1) {
        let r = run_custom_with_model(label, sorter, workload, p, seed, check, model);
        match &best {
            Some(b) if b.modeled <= r.modeled => {
                debug_assert_eq!(b.bytes_sent, r.bytes_sent, "volumes are deterministic");
            }
            _ => best = Some(r),
        }
    }
    best.expect("reps >= 1")
}

/// Runs one cell with a paper-named algorithm and the default cost model.
/// `check` enables the distributed correctness check (its traffic is
/// excluded from the accounting).
pub fn run_experiment(
    alg: Algorithm,
    workload: &Workload,
    p: usize,
    seed: u64,
    check: bool,
) -> ExperimentResult {
    run_custom_with_model(
        alg.label(),
        &*alg.instance(),
        workload,
        p,
        seed,
        check,
        &CostModel::default(),
    )
}

/// Runs one cell with an arbitrary sorter instance (used by the ablation
/// experiments in `further`, e.g. MS with character-based sampling).
pub fn run_custom(
    label: &'static str,
    sorter: &dyn DistSorter,
    workload: &Workload,
    p: usize,
    seed: u64,
    check: bool,
) -> ExperimentResult {
    run_custom_with_model(
        label,
        sorter,
        workload,
        p,
        seed,
        check,
        &CostModel::default(),
    )
}

/// [`run_custom`] with an explicit α–β cost model.
pub fn run_custom_with_model(
    label: &'static str,
    sorter: &dyn DistSorter,
    workload: &Workload,
    p: usize,
    seed: u64,
    check: bool,
    model: &CostModel,
) -> ExperimentResult {
    let workload_ref = workload;
    let res = run_spmd(
        p,
        RunConfig {
            seed,
            recv_timeout: Duration::from_secs(300),
            ..RunConfig::default()
        },
        move |comm| {
            comm.set_phase("generate");
            let shard = workload_ref.generate(comm.rank(), comm.size(), seed);
            let n = shard.len();
            let n_chars = shard.num_chars();
            let input_copy = check.then(|| shard.clone());
            comm.barrier();
            let out = sorter.sort(comm, shard);
            comm.set_phase("check");
            let ok = match input_copy {
                Some(input) => check_distributed_sort(comm, &input, &out).is_ok(),
                None => true,
            };
            (n, n_chars, ok)
        },
    );
    let n: usize = res.values.iter().map(|(n, _, _)| n).sum();
    let n_chars: usize = res.values.iter().map(|(_, c, _)| c).sum();
    let check_ok = res.values.iter().all(|&(_, _, ok)| ok);
    // Exclude generation and checking from the accounting: the paper
    // measures sorting only.
    let mut stats = res.stats.clone();
    stats
        .phases
        .retain(|ph| ph.name != "generate" && ph.name != "check" && ph.name != "main");
    let bytes_sent = stats.total_bytes_sent();
    let modeled = stats.modeled_time(model);
    let compute_ns: u64 = stats.phases.iter().map(|ph| ph.max.compute_ns).sum();
    let compute_max = Duration::from_nanos(compute_ns);
    let comm_modeled = modeled.saturating_sub(compute_max);
    let phase_ms = stats
        .modeled_phase_times(model)
        .into_iter()
        .map(|(name, d)| (name, d.as_secs_f64() * 1e3))
        .collect();
    ExperimentResult {
        algorithm: label,
        workload: workload.label(),
        p,
        n,
        n_chars,
        modeled,
        comm_modeled,
        compute_max,
        wall: res.stats.wall,
        bytes_sent,
        bytes_per_string: bytes_sent as f64 / n.max(1) as f64,
        phase_ms,
        check_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_runs_and_checks() {
        let w = Workload::DnRatio {
            n_per_pe: 100,
            len: 50,
            r: 0.5,
            sigma: 16,
        };
        let r = run_experiment(Algorithm::Ms, &w, 3, 42, true);
        assert!(r.check_ok);
        assert_eq!(r.n, 300);
        assert_eq!(r.n_chars, 15_000);
        assert!(r.bytes_sent > 0);
        assert!(r.bytes_per_string > 0.0);
        assert!(!r.phase_ms.is_empty());
    }

    #[test]
    fn accounting_excludes_generation_and_check() {
        let w = Workload::DnRatio {
            n_per_pe: 50,
            len: 30,
            r: 0.0,
            sigma: 16,
        };
        let with_check = run_experiment(Algorithm::MsSimple, &w, 2, 7, true);
        let without = run_experiment(Algorithm::MsSimple, &w, 2, 7, false);
        assert_eq!(with_check.bytes_sent, without.bytes_sent);
    }

    #[test]
    fn all_algorithms_pass_check_on_small_cell() {
        let w = Workload::Web { n_per_pe: 60 };
        for alg in Algorithm::all_paper() {
            let r = run_experiment(alg, &w, 4, 99, true);
            assert!(r.check_ok, "{} failed the distributed check", r.algorithm);
        }
    }
}
