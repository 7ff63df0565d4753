//! Timed, checked sorts of the six drivers on the simulated machine.

use crate::model::{self, SortCost, FENCE_PHASE};
use crate::spec::WorkloadSpec;
use dss_net::cputime::thread_cpu_ns;
use dss_net::runner::{run_spmd, RunConfig};
use dss_net::{trace, CostModel, NetStats};
use dss_sort::checker::check_distributed_sort;
use dss_sort::{Algorithm, ExchangeMode};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How long a PE waits for a message before the run counts as hung.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// The pinned machine: one thread per PE, so each PE's CPU clock sees
/// all of its work.
pub fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        recv_timeout: RECV_TIMEOUT,
        threads_per_pe: 1,
        ..RunConfig::default()
    }
}

/// Text of a caught panic.
pub fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// One checked sort.
pub struct Rep {
    pub stats: NetStats,
    /// CPU time of shard generation plus sorter construction on the
    /// slowest PE.
    pub setup_ns: u64,
    pub strings: u64,
    pub chars: u64,
}

/// Generates the shards, sorts them with `alg` between two fences and
/// checks the result outside the accounting. A failed check, a panic
/// and a receive timeout are all errors.
///
/// With `warm_setup`, each PE first generates its shard once untimed and
/// drops it, so the timed generation reuses faulted-in pages: first-touch
/// page faults and the allocator's mmap-threshold state stay out of
/// `setup_ns`. The memory probe passes `false`, so that its fresh
/// process sees the allocator state of a plain sort.
pub fn sort_once(
    w: &WorkloadSpec,
    alg: Algorithm,
    seed: u64,
    warm_setup: bool,
) -> Result<Rep, String> {
    let res = catch_unwind(AssertUnwindSafe(|| {
        run_spmd(w.p, run_config(seed), |comm| {
            comm.set_phase("generate");
            if warm_setup {
                drop(w.workload.generate(comm.rank(), comm.size(), seed));
            }
            let t0 = thread_cpu_ns();
            let shard = w.workload.generate(comm.rank(), comm.size(), seed);
            // The pinned sorter: blocking exchange, one thread.
            let sorter = alg.instance_with(ExchangeMode::Blocking, 1);
            let setup_ns = thread_cpu_ns() - t0;
            comm.set_phase(FENCE_PHASE);
            let input = shard.clone();
            comm.barrier();
            let out = sorter.sort(comm, shard);
            // PEs that finish early wait here, so no PE checks while
            // another still sorts.
            comm.set_phase(FENCE_PHASE);
            comm.barrier();
            comm.set_phase("check");
            let checked = check_distributed_sort(comm, &input, &out);
            (
                setup_ns,
                input.len() as u64,
                input.num_chars() as u64,
                checked,
            )
        })
    }))
    .map_err(panic_text)?;
    let mut rep = Rep {
        stats: res.stats,
        setup_ns: 0,
        strings: 0,
        chars: 0,
    };
    for (rank, (setup_ns, strings, chars, checked)) in res.values.into_iter().enumerate() {
        checked.map_err(|e| format!("check failed on PE {rank}: {e}"))?;
        rep.setup_ns = rep.setup_ns.max(setup_ns);
        rep.strings += strings;
        rep.chars += chars;
    }
    Ok(rep)
}

/// Everything measured for one driver on one workload and seed.
pub struct DriverRuns {
    pub alg: Algorithm,
    /// Makespan of every timed rep that passed.
    pub makespans_ns: Vec<f64>,
    pub setups_ns: Vec<f64>,
    pub costs: Vec<SortCost>,
    /// Bytes sent in the sort phases (identical in every rep).
    pub wire_bytes: u64,
    pub strings: u64,
    pub chars: u64,
    /// Sorts attempted, warm-up included.
    pub attempted: u64,
    pub failures: Vec<String>,
    fingerprint: Option<Vec<(String, [u64; 5])>>,
}

impl DriverRuns {
    pub fn new(alg: Algorithm) -> Self {
        Self {
            alg,
            makespans_ns: Vec::new(),
            setups_ns: Vec::new(),
            costs: Vec::new(),
            wire_bytes: 0,
            strings: 0,
            chars: 0,
            attempted: 0,
            failures: Vec::new(),
            fingerprint: None,
        }
    }

    pub fn timed_reps(&self) -> usize {
        self.makespans_ns.len()
    }

    /// Runs one sort; a warm-up sort is checked and fixes the reference
    /// wire volume but is not timed.
    pub fn run(&mut self, w: &WorkloadSpec, seed: u64, model: &CostModel, timed: bool) {
        self.attempted += 1;
        let label = self.alg.label();
        let rep_no = self.attempted;
        let rep = match sort_once(w, self.alg, seed, true) {
            Ok(rep) => rep,
            Err(e) => {
                self.failures.push(format!("{label} sort {rep_no}: {e}"));
                return;
            }
        };
        let fp = model::volume_fingerprint(&rep.stats);
        match &self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if *first != fp => {
                self.failures.push(format!(
                    "{label} sort {rep_no}: wire bytes, messages or rounds differ from the \
                     first sort of this seed"
                ));
                return;
            }
            Some(_) => {}
        }
        let cost = SortCost::of(&rep.stats, model);
        self.wire_bytes = cost.bytes_sent();
        self.strings = rep.strings;
        self.chars = rep.chars;
        if timed {
            self.makespans_ns
                .push(model::makespan_ns(&rep.stats, model));
            self.setups_ns.push(rep.setup_ns as f64);
            self.costs.push(cost);
        }
    }
}

/// One checked warm-up sort per driver, then timed reps round-robin over
/// the drivers until `budget` has passed and every driver has at least
/// `min_reps` timed reps. Tracing must be off throughout.
pub fn run_drivers(
    w: &WorkloadSpec,
    drivers: &[Algorithm],
    seed: u64,
    model: &CostModel,
    budget: Duration,
    min_reps: usize,
) -> Vec<DriverRuns> {
    let mut runs: Vec<DriverRuns> = drivers.iter().map(|&a| DriverRuns::new(a)).collect();
    let sweep = |runs: &mut Vec<DriverRuns>, timed: bool| {
        for r in runs.iter_mut() {
            assert!(
                !trace::enabled(),
                "tracing is on during an untraced sort; unset DSS_TRACE"
            );
            r.run(w, seed, model, timed);
        }
    };
    sweep(&mut runs, false);
    let start = Instant::now();
    let mut sweeps = 0;
    while sweeps < min_reps || start.elapsed() < budget {
        sweep(&mut runs, true);
        sweeps += 1;
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Family, EXCLUDED_PHASES};
    use dss_gen::Workload;

    fn tiny() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny",
            p: 4,
            workload: Workload::DnRatio {
                n_per_pe: 300,
                len: 30,
                r: 0.3,
                sigma: 8,
            },
        }
    }

    #[test]
    fn family_sums_add_up_to_the_makespan_for_every_driver() {
        let _serial = crate::SORTS.lock().expect("no test panicked while sorting");
        let model = CostModel::default();
        let w = tiny();
        let runs = run_drivers(&w, &crate::spec::DRIVERS, 5, &model, Duration::ZERO, 2);
        for r in &runs {
            assert!(r.failures.is_empty(), "{:?}", r.failures);
            assert_eq!(r.attempted, 3);
            assert_eq!(r.timed_reps(), 2);
            assert_eq!(r.strings, 1_200);
            assert!(r.wire_bytes > 0);
            for (cost, &makespan) in r.costs.iter().zip(&r.makespans_ns) {
                let by_family: f64 = Family::ALL
                    .iter()
                    .map(|&f| cost.family(f).cpu_max_ns + cost.family(f).comm_model_ns)
                    .sum();
                let rel = (by_family - makespan).abs() / makespan;
                assert!(rel < 1e-12, "{}: {by_family} vs {makespan}", r.alg.label());
                assert_eq!(
                    cost.family(Family::Other).cpu_max_ns,
                    0.0,
                    "{}",
                    r.alg.label()
                );
            }
        }
    }

    #[test]
    fn accounting_charges_only_sort_phases() {
        let _serial = crate::SORTS.lock().expect("no test panicked while sorting");
        let rep = sort_once(&tiny(), Algorithm::Ms, 9, true).expect("sort passes");
        let names: Vec<&str> = rep.stats.phases.iter().map(|p| p.name.as_str()).collect();
        for excluded in EXCLUDED_PHASES {
            assert!(
                names.contains(&excluded),
                "{excluded} missing from {names:?}"
            );
        }
        let charged: Vec<&str> = model::sort_phases(&rep.stats)
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(charged, ["local_sort", "partition", "exchange", "merge"]);
    }
}
