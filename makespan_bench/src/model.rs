//! The simulated-machine cost model: which phases count, how they group
//! into layers, and the makespan of one sort.
//!
//! A sort's makespan is the sum over its phases of
//! `max_PE(cpu_ns) + α·max_PE(rounds) + β·max(max_PE(bytes_sent), max_PE(bytes_recv))`.
//! It uses each PE thread's own CPU clock (`cpu_ns`), not the
//! oversubscription-scaled wall time (`compute_ns`) that
//! `NetStats::modeled_time` uses, because p PE threads share the host's
//! cores and wall time would measure the host's scheduler.

use dss_net::metrics::PhaseSummary;
use dss_net::{CostModel, NetStats};

/// The benchmark's own barrier phase around each sort; never charged.
pub const FENCE_PHASE: &str = "bench_fence";

/// Phases that are not part of the sort: the runtime's implicit start
/// phase, input generation, the distributed check and the fences.
pub const EXCLUDED_PHASES: [&str; 4] = ["main", "generate", "check", FENCE_PHASE];

/// A layer of the merge-based drivers, as a group of phases summed over
/// grid levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    LocalSort,
    PrefixDoubling,
    GridSetup,
    /// `partition`, `partition_row`/`partition_col`, `partition_l<i>`.
    Partition,
    /// `exchange*` and the `merge*` phases the exchange engine hands its
    /// k-way merge to.
    Exchange,
    /// Any sort phase this benchmark does not know; still charged to the
    /// makespan so that the family sums keep adding up.
    Other,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 6] = [
        Family::LocalSort,
        Family::PrefixDoubling,
        Family::GridSetup,
        Family::Partition,
        Family::Exchange,
        Family::Other,
    ];

    /// Metric-name component.
    pub fn label(self) -> &'static str {
        match self {
            Family::LocalSort => "local_sort",
            Family::PrefixDoubling => "prefix_doubling",
            Family::GridSetup => "grid_setup",
            Family::Partition => "partition",
            Family::Exchange => "exchange",
            Family::Other => "other",
        }
    }

    fn index(self) -> usize {
        Family::ALL
            .iter()
            .position(|&f| f == self)
            .expect("family is listed in ALL")
    }
}

fn is_level_of(phase: &str, base: &str) -> bool {
    phase == base
        || phase
            .strip_prefix(base)
            .and_then(|rest| rest.strip_prefix('_'))
            .is_some_and(|level| {
                level == "row"
                    || level == "col"
                    || level
                        .strip_prefix('l')
                        .is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()))
            })
}

/// The family a phase belongs to; `None` for phases outside the sort.
pub fn family(phase: &str) -> Option<Family> {
    if EXCLUDED_PHASES.contains(&phase) {
        return None;
    }
    Some(match phase {
        "local_sort" => Family::LocalSort,
        "prefix_doubling" => Family::PrefixDoubling,
        "grid_setup" => Family::GridSetup,
        p if is_level_of(p, "partition") => Family::Partition,
        p if is_level_of(p, "exchange") || is_level_of(p, "merge") => Family::Exchange,
        _ => Family::Other,
    })
}

/// The α–β term of one phase: `α·max rounds + β·max(max sent, max recv)`.
pub fn comm_model_ns(ph: &PhaseSummary, model: &CostModel) -> f64 {
    model.alpha_ns * ph.max.rounds as f64
        + model.beta_ns_per_byte * ph.max.bytes_sent.max(ph.max.bytes_recv) as f64
}

/// Makespan of the sort phases of `stats`, in nanoseconds.
pub fn makespan_ns(stats: &NetStats, model: &CostModel) -> f64 {
    sort_phases(stats)
        .map(|ph| ph.max.cpu_ns as f64 + comm_model_ns(ph, model))
        .sum()
}

/// The phases of `stats` that belong to the sort, in first-seen order.
pub fn sort_phases(stats: &NetStats) -> impl Iterator<Item = &PhaseSummary> {
    stats.phases.iter().filter(|ph| family(&ph.name).is_some())
}

/// One family's share of a sort.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FamilyCost {
    /// Σ over the family's phases of the slowest PE's CPU time.
    pub cpu_max_ns: f64,
    /// Σ over the family's phases of the mean PE's CPU time.
    pub cpu_mean_ns: f64,
    /// Σ of the per-phase maximum rounds (the latency critical path).
    pub rounds: u64,
    /// The α–β term of the family's phases.
    pub comm_model_ns: f64,
    /// Bytes sent by all PEs.
    pub bytes_sent: u64,
    /// Messages sent by all PEs.
    pub msgs_sent: u64,
}

/// The per-family accounting of one sort.
#[derive(Debug, Clone, PartialEq)]
pub struct SortCost {
    pub families: [FamilyCost; 6],
    pub num_pes: usize,
}

impl SortCost {
    /// Folds the sort phases of `stats` into families.
    pub fn of(stats: &NetStats, model: &CostModel) -> Self {
        let mut families = [FamilyCost::default(); 6];
        let pes = stats.num_pes.max(1) as f64;
        for ph in stats.phases.iter() {
            let Some(f) = family(&ph.name) else { continue };
            let c = &mut families[f.index()];
            c.cpu_max_ns += ph.max.cpu_ns as f64;
            c.cpu_mean_ns += ph.total.cpu_ns as f64 / pes;
            c.rounds += ph.max.rounds;
            c.comm_model_ns += comm_model_ns(ph, model);
            c.bytes_sent += ph.total.bytes_sent;
            c.msgs_sent += ph.total.msgs_sent;
        }
        Self {
            families,
            num_pes: stats.num_pes,
        }
    }

    pub fn family(&self, f: Family) -> &FamilyCost {
        &self.families[f.index()]
    }

    /// Σ families (cpu + comm model): equal to [`makespan_ns`].
    pub fn makespan_ns(&self) -> f64 {
        self.cpu_max_ns() + self.comm_model_ns()
    }

    pub fn cpu_max_ns(&self) -> f64 {
        self.families.iter().map(|f| f.cpu_max_ns).sum()
    }

    pub fn comm_model_ns(&self) -> f64 {
        self.families.iter().map(|f| f.comm_model_ns).sum()
    }

    /// Σ max-PE cpu / Σ mean-PE cpu: how long PEs wait for the slowest.
    pub fn cpu_imbalance(&self) -> f64 {
        let mean: f64 = self.families.iter().map(|f| f.cpu_mean_ns).sum();
        self.cpu_max_ns() / mean.max(1.0)
    }

    pub fn bytes_sent(&self) -> u64 {
        self.families.iter().map(|f| f.bytes_sent).sum()
    }
}

/// The counters that must repeat exactly across reps of one (workload,
/// driver, seed): per sort phase, its name, total bytes and messages
/// sent, total bytes received and the maximum and total rounds.
pub fn volume_fingerprint(stats: &NetStats) -> Vec<(String, [u64; 5])> {
    sort_phases(stats)
        .map(|ph| {
            (
                ph.name.clone(),
                [
                    ph.total.bytes_sent,
                    ph.total.msgs_sent,
                    ph.total.bytes_recv,
                    ph.max.rounds,
                    ph.total.rounds,
                ],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_net::metrics::{PeMetrics, PhaseCounters};
    use std::time::Duration;

    fn phase(name: &str, max: PhaseCounters, total: PhaseCounters) -> PhaseSummary {
        PhaseSummary {
            name: name.to_string(),
            total,
            max,
        }
    }

    fn counters(cpu_ns: u64, rounds: u64, sent: u64, recv: u64) -> PhaseCounters {
        PhaseCounters {
            cpu_ns,
            rounds,
            bytes_sent: sent,
            bytes_recv: recv,
            // compute_ns must be ignored by the makespan.
            compute_ns: 999_999_999,
            ..PhaseCounters::default()
        }
    }

    #[test]
    fn makespan_formula_is_pinned() {
        let model = CostModel {
            alpha_ns: 5_000.0,
            beta_ns_per_byte: 1.0,
        };
        let stats = NetStats {
            num_pes: 2,
            phases: vec![
                phase("main", counters(7, 1, 1, 1), counters(7, 1, 1, 1)),
                phase(
                    "generate",
                    counters(1_000_000, 0, 0, 0),
                    counters(2, 0, 0, 0),
                ),
                phase("local_sort", counters(300, 0, 0, 0), counters(500, 0, 0, 0)),
                phase(
                    "partition",
                    counters(40, 3, 100, 250),
                    counters(70, 6, 180, 180),
                ),
                phase(FENCE_PHASE, counters(9, 9, 9, 9), counters(9, 9, 9, 9)),
                phase(
                    "exchange",
                    counters(20, 1, 4_000, 10),
                    counters(30, 2, 5_000, 5_000),
                ),
                phase("merge", counters(600, 0, 0, 0), counters(900, 0, 0, 0)),
                phase("check", counters(5, 5, 5, 5), counters(5, 5, 5, 5)),
            ],
            wall: Duration::ZERO,
        };
        // cpu: 300 + 40 + 20 + 600; α: 5000·(3 + 1); β: 250 + 4000.
        let want = 960.0 + 20_000.0 + 4_250.0;
        assert_eq!(makespan_ns(&stats, &model), want);
        let cost = SortCost::of(&stats, &model);
        assert_eq!(cost.makespan_ns(), want);
        assert_eq!(cost.comm_model_ns(), 24_250.0);
        assert_eq!(cost.family(Family::Partition).rounds, 3);
        assert_eq!(cost.family(Family::Exchange).cpu_max_ns, 620.0);
        assert_eq!(cost.family(Family::Exchange).bytes_sent, 5_000);
        // mean cpu: (500 + 70 + 30 + 900) / 2 PEs.
        assert_eq!(cost.cpu_imbalance(), 960.0 / 750.0);
    }

    #[test]
    fn makespan_from_aggregated_pe_metrics() {
        // Two hand-made PEs with known rounds and bytes; their cpu_ns is
        // read back from the metrics, since the CPU clock cannot be set.
        let mut a = PeMetrics::with_scale(1.0);
        a.set_phase("local_sort");
        a.set_phase("exchange_l0");
        a.on_send(1_000);
        a.on_recv(10);
        a.add_rounds(2);
        a.set_phase("check");
        a.on_send(77_777);
        let mut b = PeMetrics::with_scale(1.0);
        b.set_phase("local_sort");
        b.set_phase("exchange_l0");
        b.on_send(10);
        b.on_recv(3_000);
        b.add_rounds(1);
        b.set_phase("check");
        let cpu = |m: &PeMetrics, name: &str| {
            m.phases()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, c)| c.cpu_ns)
        };
        let stats = NetStats::aggregate(&[a.clone(), b.clone()], Duration::ZERO);
        let model = CostModel::default();
        let want = cpu(&a, "local_sort").max(cpu(&b, "local_sort")) as f64
            + cpu(&a, "exchange_l0").max(cpu(&b, "exchange_l0")) as f64
            + 5_000.0 * 2.0
            + 3_000.0;
        assert_eq!(makespan_ns(&stats, &model), want);
        assert_eq!(SortCost::of(&stats, &model).makespan_ns(), want);
    }

    #[test]
    fn phase_families_group_every_level() {
        let cases = [
            ("local_sort", Some(Family::LocalSort)),
            ("prefix_doubling", Some(Family::PrefixDoubling)),
            ("grid_setup", Some(Family::GridSetup)),
            ("partition", Some(Family::Partition)),
            ("partition_row", Some(Family::Partition)),
            ("partition_col", Some(Family::Partition)),
            ("partition_l0", Some(Family::Partition)),
            ("partition_l12", Some(Family::Partition)),
            ("exchange", Some(Family::Exchange)),
            ("exchange_row", Some(Family::Exchange)),
            ("exchange_col", Some(Family::Exchange)),
            ("exchange_l3", Some(Family::Exchange)),
            ("merge", Some(Family::Exchange)),
            ("merge_row", Some(Family::Exchange)),
            ("merge_l1", Some(Family::Exchange)),
            ("partition_lx", Some(Family::Other)),
            ("partition_l", Some(Family::Other)),
            ("exchanges", Some(Family::Other)),
            ("hq_place", Some(Family::Other)),
            ("main", None),
            ("generate", None),
            ("check", None),
            (FENCE_PHASE, None),
        ];
        for (name, want) in cases {
            assert_eq!(family(name), want, "phase {name}");
        }
    }
}
