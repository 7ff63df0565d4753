//! Simulated-machine makespan benchmark for the six merge-based
//! distributed string sorters (MS, PDMS, MS2L, MSML, PD-MS2L, PD-MSML).
//!
//! See `README.md` beside this package for the workloads, the metric
//! definitions and which layer metric should move which end-to-end
//! metric.

pub mod alloc;
pub mod drivers;
pub mod layers;
pub mod model;
pub mod report;
pub mod spec;
pub mod traced;

use dss_net::trace::Trace;
use dss_net::CostModel;
use spec::{MetricDef, WorkloadSpec, DRIVERS, TRACED_DRIVERS, TRACE_GROUPS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Serializes the tests that sort: span recording is process-wide.
#[cfg(test)]
pub(crate) static SORTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Timed reps every driver gets, however short the run.
pub const MIN_REPS: usize = 3;

/// The result of one benchmark invocation.
pub struct Outcome {
    /// `(name, unit, value)` of every metric of the invocation's kind.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Sorts and isolated call rounds attempted.
    pub attempted: u64,
    /// One line per failed sort, failed check or missing metric.
    pub failures: Vec<String>,
    /// Timed reps behind each median, by driver or step.
    pub reps: Vec<(String, usize)>,
    /// First quartile, median and third quartile of each driver's
    /// per-rep makespan, in ms.
    pub makespan_quartiles_ms: Vec<(String, [f64; 3])>,
    /// Perfetto JSON of the traced run.
    pub perfetto: Option<String>,
    pub strings: u64,
    pub chars: u64,
}

/// Peak memory of one sort: runs one checked sort of `alg` in a fresh
/// process and returns that process's VmHWM in MB. A fresh process per
/// sort keeps allocator memory retained across reps out of the figure.
pub type RssProbe<'a> = &'a dyn Fn(dss_sort::Algorithm) -> Result<f64, String>;

/// Measures one workload for about `seconds`. Untraced invocations
/// report the end-to-end metrics; traced ones report the per-layer
/// metrics, from untraced driver runs, isolated layer calls and traced
/// sorts.
pub fn measure(
    w: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    rss_probe: RssProbe<'_>,
) -> Outcome {
    let model = CostModel::default();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        reps: Vec::new(),
        makespan_quartiles_ms: Vec::new(),
        perfetto: None,
        strings: 0,
        chars: 0,
    };
    let share = if traced { 0.5 } else { 1.0 };
    let runs = drivers::run_drivers(w, &DRIVERS, seed, &model, budget.mul_f64(share), MIN_REPS);
    for r in &runs {
        out.attempted += r.attempted;
        out.failures.extend(r.failures.iter().cloned());
        out.reps.push((r.alg.label().to_string(), r.timed_reps()));
        let ms: Vec<f64> = r.makespans_ns.iter().map(|ns| ns / 1e6).collect();
        if let Some(q) = report::quartiles(&ms) {
            out.makespan_quartiles_ms
                .push((r.alg.label().to_string(), q));
        }
        out.strings = out.strings.max(r.strings);
        out.chars = out.chars.max(r.chars);
    }
    let (values, defs) = if traced {
        let mut v = report::driver_layer_values(&runs);
        let untraced_ms = runs
            .iter()
            .find(|r| r.alg == dss_sort::Algorithm::Ms)
            .and_then(|r| report::median(&r.makespans_ns));
        let quarter = budget.mul_f64(0.25);
        let mut traces = traced_values(w, seed, &model, quarter, untraced_ms, &mut v, &mut out);
        traces.push(layer_values(w, seed, quarter, &mut v, &mut out));
        match traced::perfetto_json(traces) {
            Ok(json) => out.perfetto = Some(json),
            Err(e) => out.failures.push(format!("trace export: {e}")),
        }
        (v, spec::per_layer_metrics())
    } else {
        let mut peak_rss_mb = 0f64;
        for alg in DRIVERS {
            out.attempted += 1;
            match rss_probe(alg) {
                Ok(mb) => peak_rss_mb = peak_rss_mb.max(mb),
                Err(e) => out
                    .failures
                    .push(format!("{} memory probe: {e}", alg.label())),
            }
        }
        (report::e2e_values(&runs, peak_rss_mb), spec::e2e_metrics())
    };
    assemble(&values, defs, &mut out);
    out
}

fn assemble(values: &report::Values, defs: Vec<MetricDef>, out: &mut Outcome) {
    for (name, unit) in defs {
        let value = match values.get(&name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                out.failures.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        out.metrics.push((name, unit, value));
    }
}

/// Traced sorts of [`TRACED_DRIVERS`], round-robin until `budget` has
/// passed (at least [`MIN_REPS`] each): median span self times and the
/// traced-to-untraced MS makespan ratio. Returns the last rep's traces.
fn traced_values(
    w: &WorkloadSpec,
    seed: u64,
    model: &CostModel,
    budget: Duration,
    untraced_ms_ns: Option<f64>,
    v: &mut report::Values,
    out: &mut Outcome,
) -> Vec<Trace> {
    let mut makespans: Vec<Vec<f64>> = vec![Vec::new(); TRACED_DRIVERS.len()];
    let mut selfs: Vec<Vec<[f64; TRACE_GROUPS.len()]>> = vec![Vec::new(); TRACED_DRIVERS.len()];
    let mut last_traces = Vec::new();
    let start = Instant::now();
    let mut sweeps = 0;
    while sweeps < MIN_REPS || start.elapsed() < budget {
        last_traces.clear();
        for (i, &alg) in TRACED_DRIVERS.iter().enumerate() {
            out.attempted += 1;
            match traced::traced_rep(w, alg, seed, model) {
                Ok(rep) => {
                    makespans[i].push(rep.makespan_ns);
                    selfs[i].push(rep.self_ns);
                    last_traces.push(rep.trace);
                }
                Err(e) => out
                    .failures
                    .push(format!("traced {} sort: {e}", alg.label())),
            }
        }
        sweeps += 1;
    }
    for (i, alg) in TRACED_DRIVERS.iter().enumerate() {
        out.reps
            .push((format!("{}.traced", alg.label()), makespans[i].len()));
        for (g, group) in TRACE_GROUPS.iter().enumerate() {
            let ns: Vec<f64> = selfs[i].iter().map(|s| s[g]).collect();
            if let Some(m) = report::median(&ns) {
                v.insert(format!("{}.trace.{group}.self_ms", alg.label()), m / 1e6);
            }
        }
    }
    if let (Some(traced), Some(untraced)) = (report::median(&makespans[0]), untraced_ms_ns) {
        v.insert("trace.overhead_ratio".into(), traced / untraced);
    }
    last_traces
}

/// Rounds of isolated layer calls until `budget` has passed (at least
/// one), then one traced round, whose trace is returned.
fn layer_values(
    w: &WorkloadSpec,
    seed: u64,
    budget: Duration,
    v: &mut report::Values,
    out: &mut Outcome,
) -> Trace {
    let shards = layers::Shards::generate(w, seed);
    let mut rounds: Vec<layers::Round> = Vec::new();
    let run_round = |out: &mut Outcome| {
        out.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| layers::round(&shards, seed))) {
            Ok(r) => {
                out.failures.extend(r.failures.iter().cloned());
                Some(r)
            }
            Err(e) => {
                out.failures
                    .push(format!("isolated layer calls: {}", drivers::panic_text(e)));
                None
            }
        }
    };
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < budget {
        match run_round(out) {
            Some(r) => rounds.push(r),
            None => break,
        }
    }
    out.reps.push(("layers".into(), rounds.len()));
    let (_, trace) = traced::record(|| run_round(out));
    let names: Vec<&str> = rounds
        .first()
        .map(|r| r.values.iter().map(|(n, _)| *n).collect())
        .unwrap_or_default();
    for name in names {
        let xs: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.values.iter().filter(|(n, _)| *n == name).map(|(_, x)| *x))
            .collect();
        if let Some(m) = report::median(&xs) {
            v.insert(name.to_string(), m);
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_gen::Workload;

    fn names(seed: u64, traced: bool) -> (Vec<String>, Outcome) {
        let w = WorkloadSpec {
            name: "tiny",
            p: 4,
            workload: Workload::DnRatio {
                n_per_pe: 200,
                len: 24,
                r: 0.3,
                sigma: 8,
            },
        };
        let probe = |alg| drivers::sort_once(&w, alg, seed, false).map(|_| report::peak_rss_mb());
        let o = measure(&w, seed, 0.0, traced, &probe);
        (o.metrics.iter().map(|m| m.0.clone()).collect(), o)
    }

    #[test]
    fn every_metric_is_measured_and_names_do_not_depend_on_the_seed() {
        let _serial = SORTS.lock().expect("no test panicked while sorting");
        for traced in [false, true] {
            let (a, oa) = names(1, traced);
            let (b, ob) = names(2, traced);
            assert!(oa.failures.is_empty(), "{:?}", oa.failures);
            assert!(ob.failures.is_empty(), "{:?}", ob.failures);
            assert_eq!(a, b);
            let want = if traced {
                spec::per_layer_metrics()
            } else {
                spec::e2e_metrics()
            };
            assert_eq!(a, want.into_iter().map(|d| d.0).collect::<Vec<_>>());
            assert!(oa.metrics.iter().all(|m| m.2.is_finite()));
            assert_eq!(traced, oa.perfetto.is_some());
            if !traced {
                let value = |o: &Outcome, n: &str| o.metrics.iter().find(|m| m.0 == n).map(|m| m.2);
                assert_eq!(value(&oa, "check_pass_share"), Some(1.0));
                // Another seed, other inputs: the wire volume moves.
                assert_ne!(
                    value(&oa, "MS.wire_bytes_per_string"),
                    value(&ob, "MS.wire_bytes_per_string")
                );
            }
        }
    }
}
