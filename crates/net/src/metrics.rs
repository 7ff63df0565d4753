//! Communication metrics and the α–β cost model.
//!
//! Every PE tracks, per algorithm *phase* (a label set by the algorithm,
//! e.g. `"local_sort"`, `"exchange"`), the bytes and messages it sent and
//! received, the latency rounds it contributed to the critical path, and
//! the wall time it spent computing vs. waiting in communication calls.
//!
//! The harness folds the per-PE records into a [`NetStats`] and evaluates
//! the paper's cost model: each phase costs
//! `max_PE(compute) + α·max_PE(rounds) + β·max_PE(bytes)`, phases add up.
//! "Rounds" is the number of sequential message latencies an operation
//! puts on the critical path (log p for tree collectives, p−1 for the
//! direct all-to-all), matching the O(α…) terms of Theorems 1–6.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Oversubscription correction for compute-time accounting: with `p` PEs
/// of `threads_per_pe` worker threads each on this host's cores,
/// wall-clock compute spans overstate CPU use by `p·t / cores`, so they
/// are scaled by `min(1, cores / (p·t))`.
///
/// The threads-per-PE factor matters: a PE running a `t`-way parallel
/// local sort occupies `t` hardware threads for the span's duration, so
/// assuming one thread per PE (the old signature) would silently
/// overstate compute the moment PEs go multi-threaded.
///
/// Timing-sensitive tests must scale their compute/overlap assertions by
/// this factor instead of assuming real concurrency — on a 1-core host
/// every "parallel" phase is in fact time-sliced.
pub fn oversub_scale(p: usize, threads_per_pe: usize) -> f64 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores as f64 / (p * threads_per_pe.max(1)) as f64).min(1.0)
}

/// Counters for one phase on one PE.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Payload bytes sent to other PEs (self-delivery is free and uncounted).
    pub bytes_sent: u64,
    /// Payload bytes received from other PEs.
    pub bytes_recv: u64,
    /// Messages sent to other PEs.
    pub msgs_sent: u64,
    /// Sequential message rounds contributed to the critical path.
    pub rounds: u64,
    /// Nanoseconds spent in user code (oversubscription-corrected wall).
    pub compute_ns: u64,
    /// Nanoseconds spent inside communication calls (incl. waiting).
    pub comm_ns: u64,
    /// Nanoseconds of `comm_ns` spent *blocked with no matching message
    /// ready* — the stall share of communication time. A phase with high
    /// `comm_ns` but low `stall_ns` is bandwidth/copy bound; high
    /// `stall_ns` means the PE sat waiting on peers (skew or latency).
    pub stall_ns: u64,
    /// Raw per-thread CPU nanoseconds in user code (diagnostic; may be
    /// tick-quantized on sandboxed kernels).
    pub cpu_ns: u64,
}

impl PhaseCounters {
    fn absorb(&mut self, o: &PhaseCounters) {
        self.bytes_sent += o.bytes_sent;
        self.bytes_recv += o.bytes_recv;
        self.msgs_sent += o.msgs_sent;
        self.rounds += o.rounds;
        self.compute_ns += o.compute_ns;
        self.comm_ns += o.comm_ns;
        self.stall_ns += o.stall_ns;
        self.cpu_ns += o.cpu_ns;
    }

    fn max_with(&mut self, o: &PhaseCounters) {
        self.bytes_sent = self.bytes_sent.max(o.bytes_sent);
        self.bytes_recv = self.bytes_recv.max(o.bytes_recv);
        self.msgs_sent = self.msgs_sent.max(o.msgs_sent);
        self.rounds = self.rounds.max(o.rounds);
        self.compute_ns = self.compute_ns.max(o.compute_ns);
        self.comm_ns = self.comm_ns.max(o.comm_ns);
        self.stall_ns = self.stall_ns.max(o.stall_ns);
        self.cpu_ns = self.cpu_ns.max(o.cpu_ns);
    }
}

/// Per-PE metrics: ordered list of phases (in first-seen order).
///
/// Compute time is wall time between communication calls, scaled by the
/// oversubscription factor `min(1, host cores / p)`: exact when each PE
/// thread has its own core, and an unbiased estimate in the lockstep
/// compute phases of SPMD algorithms beyond that (all PEs crunch
/// concurrently, so each receives `cores/p` of the machine). The
/// per-thread CPU clock ([`crate::cputime`]) is also sampled into
/// `cpu_ns` as a cross-check, but many sandboxed kernels quantize it to
/// scheduler ticks (10 ms), too coarse to be the primary source.
#[derive(Debug, Clone)]
pub struct PeMetrics {
    phases: Vec<(String, PhaseCounters)>,
    cur: usize,
    boundary_wall: Instant,
    boundary_cpu: u64,
    /// Multiplier applied to wall-clock compute spans.
    oversub_scale: f64,
}

impl Default for PeMetrics {
    fn default() -> Self {
        Self::with_scale(1.0)
    }
}

impl PeMetrics {
    /// Creates metrics with the given oversubscription scale factor.
    pub fn with_scale(oversub_scale: f64) -> Self {
        Self {
            phases: vec![("main".to_string(), PhaseCounters::default())],
            cur: 0,
            boundary_wall: Instant::now(),
            boundary_cpu: crate::cputime::thread_cpu_ns(),
            oversub_scale,
        }
    }

    /// Switches the active phase, flushing elapsed compute time first.
    pub fn set_phase(&mut self, name: &str) {
        self.flush_compute();
        if let Some(i) = self.phases.iter().position(|(n, _)| n == name) {
            self.cur = i;
        } else {
            self.phases
                .push((name.to_string(), PhaseCounters::default()));
            self.cur = self.phases.len() - 1;
        }
    }

    /// Name of the active phase.
    pub fn current_phase(&self) -> &str {
        &self.phases[self.cur].0
    }

    #[inline]
    fn advance_boundary(&mut self) -> (u64, u64) {
        let now_wall = Instant::now();
        let now_cpu = crate::cputime::thread_cpu_ns();
        let wall = (now_wall - self.boundary_wall).as_nanos() as u64;
        let cpu = now_cpu.saturating_sub(self.boundary_cpu);
        self.boundary_wall = now_wall;
        self.boundary_cpu = now_cpu;
        (wall, cpu)
    }

    /// Attributes time since the last boundary to compute.
    pub fn flush_compute(&mut self) {
        let (wall, cpu) = self.advance_boundary();
        let c = &mut self.phases[self.cur].1;
        c.compute_ns += (wall as f64 * self.oversub_scale) as u64;
        c.cpu_ns += cpu;
    }

    /// Attributes wall time since the last boundary to communication.
    pub fn flush_comm(&mut self) {
        let (wall, _) = self.advance_boundary();
        self.phases[self.cur].1.comm_ns += wall;
    }

    /// Records an outgoing message.
    pub fn on_send(&mut self, bytes: usize) {
        let c = &mut self.phases[self.cur].1;
        c.bytes_sent += bytes as u64;
        c.msgs_sent += 1;
    }

    /// Records an incoming message.
    pub fn on_recv(&mut self, bytes: usize) {
        self.phases[self.cur].1.bytes_recv += bytes as u64;
    }

    /// Adds latency rounds to the critical path.
    pub fn add_rounds(&mut self, rounds: u64) {
        self.phases[self.cur].1.rounds += rounds;
    }

    /// Attributes `ns` of the current phase's communication time to
    /// stalling (blocked with no matching message ready). Callers record
    /// this *in addition to* the enclosing `flush_comm` span; `stall_ns`
    /// is a sub-account of `comm_ns`, not an extra cost.
    pub fn add_stall(&mut self, ns: u64) {
        self.phases[self.cur].1.stall_ns += ns;
    }

    /// Iterates over `(phase name, counters)`.
    pub fn phases(&self) -> impl Iterator<Item = (&str, &PhaseCounters)> {
        self.phases.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Sum of counters over all phases.
    pub fn totals(&self) -> PhaseCounters {
        let mut t = PhaseCounters::default();
        for (_, c) in &self.phases {
            t.absorb(c);
        }
        t
    }
}

/// Aggregated per-phase view across all PEs.
#[derive(Debug, Clone, Default)]
pub struct PhaseSummary {
    /// Phase label.
    pub name: String,
    /// Sums over PEs.
    pub total: PhaseCounters,
    /// Per-PE maxima (the bottleneck values `h` of the paper's analysis).
    pub max: PhaseCounters,
}

/// α–β machine parameters for the modeled time.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Message startup latency (the paper's α), nanoseconds.
    pub alpha_ns: f64,
    /// Time per payload *byte* (the paper's β·8), nanoseconds.
    pub beta_ns_per_byte: f64,
}

impl Default for CostModel {
    /// α = 5 µs, β = 1 ns/B (≈ 1 GB/s effective per-PE bandwidth).
    fn default() -> Self {
        Self {
            alpha_ns: 5_000.0,
            beta_ns_per_byte: 1.0,
        }
    }
}

/// Aggregated statistics of one SPMD run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Number of PEs.
    pub num_pes: usize,
    /// Per-phase summaries, in first-seen order.
    pub phases: Vec<PhaseSummary>,
    /// Wall time of the whole run (includes thread oversubscription noise).
    pub wall: Duration,
}

impl NetStats {
    /// Folds per-PE metrics into phase summaries.
    pub fn aggregate(pe_metrics: &[PeMetrics], wall: Duration) -> Self {
        let mut order: Vec<String> = Vec::new();
        let mut map: BTreeMap<String, PhaseSummary> = BTreeMap::new();
        for m in pe_metrics {
            for (name, c) in m.phases() {
                if !map.contains_key(name) {
                    order.push(name.to_string());
                    map.insert(
                        name.to_string(),
                        PhaseSummary {
                            name: name.to_string(),
                            ..PhaseSummary::default()
                        },
                    );
                }
                let s = map.get_mut(name).expect("phase just inserted");
                s.total.absorb(c);
                s.max.max_with(c);
            }
        }
        Self {
            num_pes: pe_metrics.len(),
            phases: order
                .into_iter()
                .map(|n| map.remove(&n).expect("ordered phase exists"))
                .collect(),
            wall,
        }
    }

    /// Totals over all phases.
    pub fn totals(&self) -> PhaseCounters {
        let mut t = PhaseCounters::default();
        for p in &self.phases {
            t.absorb(&p.total);
        }
        t
    }

    /// Bottleneck totals (sum over phases of per-phase maxima).
    pub fn bottleneck(&self) -> PhaseCounters {
        let mut t = PhaseCounters::default();
        for p in &self.phases {
            t.absorb(&p.max);
        }
        t
    }

    /// Total bytes sent across all PEs (the numerator of the paper's
    /// "bytes sent per string" plots).
    pub fn total_bytes_sent(&self) -> u64 {
        self.totals().bytes_sent
    }

    /// Modeled execution time under the α–β model:
    /// `Σ_phases (max compute + α·max rounds + β·max(sent, recv))`.
    pub fn modeled_time(&self, model: &CostModel) -> Duration {
        let mut ns = 0f64;
        for p in &self.phases {
            ns += p.max.compute_ns as f64;
            ns += model.alpha_ns * p.max.rounds as f64;
            ns += model.beta_ns_per_byte * p.max.bytes_sent.max(p.max.bytes_recv) as f64;
        }
        Duration::from_nanos(ns as u64)
    }

    /// Per-phase modeled time (diagnostics / ablation output).
    pub fn modeled_phase_times(&self, model: &CostModel) -> Vec<(String, Duration)> {
        self.phases
            .iter()
            .map(|p| {
                let ns = p.max.compute_ns as f64
                    + model.alpha_ns * p.max.rounds as f64
                    + model.beta_ns_per_byte * p.max.bytes_sent.max(p.max.bytes_recv) as f64;
                (p.name.clone(), Duration::from_nanos(ns as u64))
            })
            .collect()
    }

    /// Human-readable per-phase breakdown with stall attribution: one row
    /// per phase with bottleneck (per-PE max) compute/comm/stall times
    /// and total bytes/messages, plus a totals row. The `stall%` column
    /// is stall as a share of comm — the direct answer to "was this
    /// phase's comm time copying bytes or waiting on peers?".
    pub fn phase_report(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        fn pct(part: u64, whole: u64) -> f64 {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>12} {:>7} {:>12} {:>8}\n",
            "phase", "compute_ms", "comm_ms", "stall_ms", "stall%", "bytes", "msgs"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>6.1}% {:>12} {:>8}\n",
                p.name,
                ms(p.max.compute_ns),
                ms(p.max.comm_ns),
                ms(p.max.stall_ns),
                pct(p.max.stall_ns, p.max.comm_ns),
                p.total.bytes_sent,
                p.total.msgs_sent,
            ));
        }
        let b = self.bottleneck();
        let t = self.totals();
        out.push_str(&format!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>6.1}% {:>12} {:>8}\n",
            "TOTAL",
            ms(b.compute_ns),
            ms(b.comm_ns),
            ms(b.stall_ns),
            pct(b.stall_ns, b.comm_ns),
            t.bytes_sent,
            t.msgs_sent,
        ));
        out
    }

    /// [`Self::phase_report`] as machine-readable JSON: an array of
    /// per-phase objects with both bottleneck (`max_*`) and summed
    /// (`total_*`) counters.
    pub fn phase_report_json(&self) -> String {
        let mut out = String::from("[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                concat!(
                    "{{\"phase\":\"{}\",",
                    "\"max_compute_ns\":{},\"max_comm_ns\":{},\"max_stall_ns\":{},",
                    "\"max_rounds\":{},",
                    "\"total_bytes_sent\":{},\"total_bytes_recv\":{},",
                    "\"total_msgs_sent\":{},\"total_stall_ns\":{}}}"
                ),
                p.name.escape_default(),
                p.max.compute_ns,
                p.max.comm_ns,
                p.max.stall_ns,
                p.max.rounds,
                p.total.bytes_sent,
                p.total.bytes_recv,
                p.total.msgs_sent,
                p.total.stall_ns,
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the oversubscription formula `min(1, cores / (p·t))` against
    /// the host's actual core count — valid on any machine, including
    /// 1-core hosts (where every scale with p·t > 1 shrinks below 1).
    #[test]
    fn oversub_scale_accounts_for_threads_per_pe() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f64;
        for (p, t) in [(1, 1), (2, 1), (1, 4), (2, 4), (4, 8), (16, 16)] {
            let want = (cores / (p * t) as f64).min(1.0);
            let got = oversub_scale(p, t);
            assert!((got - want).abs() < 1e-12, "p={p} t={t}: {got} vs {want}");
        }
        // t worker threads per PE must shrink the correction exactly as if
        // there were p·t single-threaded PEs.
        assert_eq!(oversub_scale(2, 4).to_bits(), oversub_scale(8, 1).to_bits());
        // A zero thread count is treated as 1 (defensive; validated knobs
        // never produce it).
        assert_eq!(oversub_scale(2, 0).to_bits(), oversub_scale(2, 1).to_bits());
        assert!(oversub_scale(1, 1) <= 1.0 && oversub_scale(1, 1) > 0.0);
    }

    #[test]
    fn phases_accumulate_in_order() {
        let mut m = PeMetrics::default();
        m.on_send(100);
        m.set_phase("exchange");
        m.on_send(50);
        m.on_recv(70);
        m.add_rounds(3);
        m.set_phase("main"); // back to the first phase
        m.on_send(1);
        let phases: Vec<_> = m.phases().collect();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "main");
        assert_eq!(phases[0].1.bytes_sent, 101);
        assert_eq!(phases[1].1.bytes_sent, 50);
        assert_eq!(phases[1].1.bytes_recv, 70);
        assert_eq!(phases[1].1.rounds, 3);
        assert_eq!(m.totals().bytes_sent, 151);
    }

    #[test]
    fn aggregate_takes_sums_and_maxima() {
        let mut a = PeMetrics::default();
        a.on_send(10);
        let mut b = PeMetrics::default();
        b.on_send(30);
        b.add_rounds(2);
        let stats = NetStats::aggregate(&[a, b], Duration::from_millis(1));
        assert_eq!(stats.num_pes, 2);
        assert_eq!(stats.phases.len(), 1);
        assert_eq!(stats.phases[0].total.bytes_sent, 40);
        assert_eq!(stats.phases[0].max.bytes_sent, 30);
        assert_eq!(stats.phases[0].max.rounds, 2);
        assert_eq!(stats.total_bytes_sent(), 40);
    }

    #[test]
    fn modeled_time_applies_alpha_beta() {
        let mut a = PeMetrics::default();
        a.on_send(1000);
        a.add_rounds(4);
        let stats = NetStats::aggregate(&[a], Duration::ZERO);
        let model = CostModel {
            alpha_ns: 1000.0,
            beta_ns_per_byte: 2.0,
        };
        let t = stats.modeled_time(&model);
        // compute≈0 + 4*1000 + 1000*2 = 6000 ns (compute may add noise ns).
        assert!(t >= Duration::from_nanos(6000));
        assert!(t < Duration::from_nanos(6000) + Duration::from_millis(5));
    }

    /// Satellite pin for the `Comm::set_phase` double-flush fix: one
    /// phase switch must charge the elapsed interval to compute exactly
    /// once. With scale 1.0, compute is raw wall, so the sum of per-phase
    /// compute can never exceed the wall clock of the whole sequence —
    /// any double-charge of a busy interval breaks the inequality.
    #[test]
    fn phase_switch_charges_elapsed_compute_exactly_once() {
        fn busy(d: Duration) {
            let t0 = Instant::now();
            while t0.elapsed() < d {
                std::hint::black_box(0u64);
            }
        }
        let start = Instant::now();
        let mut m = PeMetrics::with_scale(1.0);
        busy(Duration::from_millis(3));
        m.set_phase("a");
        busy(Duration::from_millis(3));
        m.set_phase("b");
        m.flush_compute();
        let elapsed = start.elapsed().as_nanos() as u64;
        let per_phase: Vec<u64> = m.phases().map(|(_, c)| c.compute_ns).collect();
        let total: u64 = per_phase.iter().sum();
        assert!(
            total <= elapsed,
            "phases charged {total} ns compute out of {elapsed} ns wall — \
             some interval was counted more than once"
        );
        // Each busy interval landed in the phase that was active while it
        // ran ("main" and "a"), not in the phase being switched to.
        assert!(per_phase[0] >= 3_000_000, "main got {} ns", per_phase[0]);
        assert!(per_phase[1] >= 3_000_000, "a got {} ns", per_phase[1]);
    }

    #[test]
    fn stall_is_a_sub_account_of_comm() {
        let mut a = PeMetrics::default();
        a.set_phase("exchange");
        a.add_stall(500);
        let mut b = PeMetrics::default();
        b.set_phase("exchange");
        b.add_stall(1200);
        let stats = NetStats::aggregate(&[a, b], Duration::ZERO);
        let exch = stats.phases.iter().find(|p| p.name == "exchange").unwrap();
        assert_eq!(exch.total.stall_ns, 1700);
        assert_eq!(exch.max.stall_ns, 1200);
        assert_eq!(stats.totals().stall_ns, 1700);
        assert_eq!(stats.bottleneck().stall_ns, 1200);
    }

    #[test]
    fn phase_report_lists_phases_and_stall_share() {
        let mut a = PeMetrics::default();
        a.set_phase("exchange");
        a.on_send(4096);
        a.add_stall(250);
        let stats = NetStats::aggregate(&[a], Duration::ZERO);
        let report = stats.phase_report();
        assert!(report.contains("stall%"), "{report}");
        assert!(report.contains("exchange"), "{report}");
        assert!(report.contains("TOTAL"), "{report}");
        let json = stats.phase_report_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"phase\":\"exchange\""), "{json}");
        assert!(json.contains("\"total_bytes_sent\":4096"), "{json}");
        assert!(json.contains("\"max_stall_ns\":250"), "{json}");
    }

    #[test]
    fn distinct_phases_per_pe_union() {
        let mut a = PeMetrics::default();
        a.set_phase("x");
        a.on_send(5);
        let mut b = PeMetrics::default();
        b.set_phase("y");
        b.on_send(7);
        let stats = NetStats::aggregate(&[a, b], Duration::ZERO);
        let names: Vec<_> = stats.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["main", "x", "y"]);
    }
}
